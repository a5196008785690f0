package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spritedht/sprite"
)

// capture runs execute() with stdout redirected and returns the printed
// output plus the done flag.
func capture(t *testing.T, net *sprite.Network, line string) (string, bool) {
	return captureTel(t, net, nil, line)
}

// captureTel is capture with an explicit telemetry handle (nil = off).
func captureTel(t *testing.T, net *sprite.Network, tel *sprite.Telemetry, line string) (string, bool) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := execute(net, tel, line)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	io.Copy(&buf, r)
	return buf.String(), done
}

func testNet(t *testing.T) *sprite.Network {
	t.Helper()
	net, err := sprite.New(sprite.Options{Peers: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestExecuteShareAndSearch(t *testing.T) {
	net := testNet(t)
	out, done := capture(t, net, "share peer0 d1 consensus leader election protocols")
	if done || !strings.Contains(out, "shared d1") {
		t.Fatalf("share output: %q", out)
	}
	out, _ = capture(t, net, "search peer2 5 leader election")
	if !strings.Contains(out, "d1") {
		t.Fatalf("search output: %q", out)
	}
	out, _ = capture(t, net, "search peer2 5 nonexistentterm")
	if !strings.Contains(out, "no results") {
		t.Fatalf("miss output: %q", out)
	}
}

func TestExecuteTermsLearnStats(t *testing.T) {
	net := testNet(t)
	capture(t, net, "share peer0 d1 alpha beta gamma")
	out, _ := capture(t, net, "terms d1")
	if !strings.Contains(out, "alpha") {
		t.Fatalf("terms output: %q", out)
	}
	out, _ = capture(t, net, "learn")
	if !strings.Contains(out, "learning iteration") {
		t.Fatalf("learn output: %q", out)
	}
	out, _ = capture(t, net, "stats")
	if !strings.Contains(out, "postings=") {
		t.Fatalf("stats output: %q", out)
	}
}

func TestExecuteUnshareRefreshExpand(t *testing.T) {
	net := testNet(t)
	capture(t, net, "share peer0 d1 quorum ballot acceptor consensus")
	out, _ := capture(t, net, "expand peer1 5 quorum")
	if !strings.Contains(out, "d1") {
		t.Fatalf("expand output: %q", out)
	}
	out, _ = capture(t, net, "learn")
	if !strings.Contains(out, "learning iteration") {
		t.Fatalf("learn output: %q", out)
	}
	out, _ = capture(t, net, "unshare d1")
	if !strings.Contains(out, "withdrawn") {
		t.Fatalf("unshare output: %q", out)
	}
	out, _ = capture(t, net, "unshare d1")
	if !strings.Contains(out, "error") {
		t.Fatalf("double unshare output: %q", out)
	}
}

func TestExecuteSimilar(t *testing.T) {
	net, err := sprite.New(sprite.Options{Peers: 8, Seed: 4, Sketch: sprite.SketchOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	capture(t, net, "share peer0 d1 chord scalable lookup protocol distributed hash tables")
	capture(t, net, "share peer1 d2 pastry scalable overlay routing protocol distributed systems")
	capture(t, net, "share peer2 d3 porter stemmer suffix stripping english words")
	out, done := capture(t, net, "similar peer3 2 d1")
	if done || !strings.Contains(out, "d2") || !strings.Contains(out, "cosine=") {
		t.Fatalf("similar output: %q", out)
	}
	if strings.Contains(out, "d1") {
		t.Fatalf("query doc listed among its own neighbors: %q", out)
	}
	for _, bad := range []string{"similar peer3 2", "similar peer3 zero d1", "similar peer3 2 ghost"} {
		out, _ := capture(t, net, bad)
		if !strings.Contains(out, "error") {
			t.Fatalf("%q did not report an error: %q", bad, out)
		}
	}

	// Without -sketch the command must fail cleanly, not panic.
	plain := testNet(t)
	capture(t, plain, "share peer0 d1 some text")
	out, _ = capture(t, plain, "similar peer1 2 d1")
	if !strings.Contains(out, "error") || !strings.Contains(out, "sketch") {
		t.Fatalf("sketch-disabled similar output: %q", out)
	}
}

func TestExecuteFailRecoverStabilize(t *testing.T) {
	net := testNet(t)
	out, _ := capture(t, net, "fail peer3")
	if !strings.Contains(out, "down") {
		t.Fatalf("fail output: %q", out)
	}
	out, _ = capture(t, net, "recover peer3")
	if !strings.Contains(out, "back") {
		t.Fatalf("recover output: %q", out)
	}
	out, _ = capture(t, net, "stabilize")
	if !strings.Contains(out, "stabilized") {
		t.Fatalf("stabilize output: %q", out)
	}
}

func TestExecuteJoinLeaveRepair(t *testing.T) {
	net := testNet(t)
	capture(t, net, "share peer0 d1 documents survive ring membership changes")
	out, _ := capture(t, net, "join fresh")
	if !strings.Contains(out, "joined") {
		t.Fatalf("join output: %q", out)
	}
	out, _ = capture(t, net, "peers")
	if !strings.Contains(out, "fresh") {
		t.Fatalf("joined peer missing from peers: %q", out)
	}
	out, _ = capture(t, net, "repair")
	if !strings.Contains(out, "repair moved") {
		t.Fatalf("repair output: %q", out)
	}
	out, _ = capture(t, net, "leave fresh")
	if !strings.Contains(out, "left the ring") {
		t.Fatalf("leave output: %q", out)
	}
	out, _ = capture(t, net, "search peer1 5 survive membership")
	if !strings.Contains(out, "d1") {
		t.Fatalf("doc lost across join/leave: %q", out)
	}
	out, _ = capture(t, net, "leave fresh")
	if !strings.Contains(out, "error") {
		t.Fatalf("double leave output: %q", out)
	}
	out, _ = capture(t, net, "join peer0")
	if !strings.Contains(out, "error") {
		t.Fatalf("duplicate join output: %q", out)
	}
}

func TestExecuteSaveLoad(t *testing.T) {
	net := testNet(t)
	capture(t, net, "share peer0 d1 durable checkpoint state")
	path := filepath.Join(t.TempDir(), "state.bin")
	out, _ := capture(t, net, "save "+path)
	if !strings.Contains(out, "saved") {
		t.Fatalf("save output: %q", out)
	}
	capture(t, net, "unshare d1")
	out, _ = capture(t, net, "load "+path)
	if !strings.Contains(out, "loaded") {
		t.Fatalf("load output: %q", out)
	}
	out, _ = capture(t, net, "search peer1 5 durable checkpoint")
	if !strings.Contains(out, "d1") {
		t.Fatalf("post-load search output: %q", out)
	}
}

func TestExecuteErrorsAndQuit(t *testing.T) {
	net := testNet(t)
	for _, bad := range []string{
		"share onlytwo args",
		"search peer0 notanumber query",
		"search peer0 5",
		"terms",
		"fail",
		"recover",
		"unshare",
		"save",
		"load /nonexistent/dir/x.bin",
		"bogus command",
	} {
		out, done := capture(t, net, bad)
		if done {
			t.Fatalf("%q terminated the session", bad)
		}
		if !strings.Contains(out, "error") {
			t.Fatalf("%q did not report an error: %q", bad, out)
		}
	}
	if _, done := capture(t, net, "quit"); !done {
		t.Fatal("quit did not end the session")
	}
	if _, done := capture(t, net, "exit"); !done {
		t.Fatal("exit did not end the session")
	}
	out, _ := capture(t, net, "help")
	if !strings.Contains(out, "commands:") {
		t.Fatalf("help output: %q", out)
	}
	out, _ = capture(t, net, "peers")
	if !strings.Contains(out, "peer0") {
		t.Fatalf("peers output: %q", out)
	}
	out, _ = capture(t, net, "telemetry")
	if !strings.Contains(out, "error") {
		t.Fatalf("telemetry-off output: %q", out)
	}
}

func TestExecuteTelemetryReport(t *testing.T) {
	tel := sprite.NewTelemetry()
	net, err := sprite.New(sprite.Options{Peers: 8, Seed: 4, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	captureTel(t, net, tel, "share peer0 d1 consensus leader election protocols")
	captureTel(t, net, tel, "search peer2 5 leader election")
	out, _ := captureTel(t, net, tel, "telemetry")
	for _, want := range []string{"== telemetry report ==", "chord.lookup.hops", "simnet.bytes.", "trace 1 ("} {
		if !strings.Contains(out, want) {
			t.Fatalf("telemetry report missing %q:\n%s", want, out)
		}
	}
}
