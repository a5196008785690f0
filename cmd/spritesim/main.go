// Command spritesim is an interactive SPRITE simulator: it builds a ring of
// peers and accepts commands to share documents, issue queries, run learning
// iterations, inject failures, and inspect peer state — a REPL over the same
// public API downstream programs use.
//
// Usage:
//
//	spritesim [-peers N] [-replicas R] [-seed S] [-script file]
//	          [-telemetry] [-telemetry-http addr] [-parallel P]
//	          [-cache] [-cache-result-ttl D] [-cache-postings N]
//	          [-virtual-time] [-sketch]
//
// Commands (also shown by "help"):
//
//	share <peer> <docID> <text...>      share a document
//	search <peer> <k> <query...>        keyword search, top-k
//	similar <peer> <k> <docID>          sketch-cosine neighbors (-sketch)
//	learn                               run one learning iteration
//	terms <docID>                       show a document's index terms
//	fail <peer> / recover <peer>        crash / revive a peer
//	stabilize                           repair the overlay after churn
//	peers                               list peers
//	stats                               network traffic and index footprint
//	cache                               query-path cache counters (-cache)
//	telemetry                           full metrics + trace report (-telemetry)
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"github.com/spritedht/sprite"
)

func main() {
	var (
		peers     = flag.Int("peers", 16, "number of peers in the ring")
		replicas  = flag.Int("replicas", 0, "successor replicas per index entry")
		seed      = flag.Int64("seed", 1, "simulation seed")
		script    = flag.String("script", "", "read commands from file instead of stdin")
		telemetry = flag.Bool("telemetry", false, "record metrics and query traces; print a report on exit")
		telHTTP   = flag.String("telemetry-http", "", "serve the live telemetry snapshot at this addr (implies -telemetry)")
		withCache = flag.Bool("cache", false, "enable the query-path caches (postings + results)")
		cacheTTL  = flag.Duration("cache-result-ttl", 0, "result cache TTL (0 = default 2s; implies -cache)")
		cacheSize = flag.Int("cache-postings", 0, "postings cache capacity in terms (0 = default 4096; implies -cache)")
		parallel  = flag.Int("parallel", 0, "query fan-out parallelism (0 = GOMAXPROCS, 1 = sequential)")
		sketches  = flag.Bool("sketch", false, "sketch shared documents, enabling the similar command")
		virtual   = flag.Bool("virtual-time", false, "run the simulation on the deterministic event clock (internal/vtime); cache TTLs and timeouts advance with simulated, not wall, time")
	)
	flag.Parse()

	var tel *sprite.Telemetry
	if *telemetry || *telHTTP != "" {
		tel = sprite.NewTelemetry()
	}
	cache := sprite.CacheOptions{
		Enabled:         *withCache || *cacheTTL > 0 || *cacheSize > 0,
		ResultTTL:       *cacheTTL,
		PostingsEntries: *cacheSize,
	}
	net, err := sprite.New(sprite.Options{Peers: *peers, Replicas: *replicas, Seed: *seed, Telemetry: tel, Cache: cache, Parallelism: *parallel, VirtualTime: *virtual, Sketch: sprite.SketchOptions{Enabled: *sketches}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spritesim:", err)
		os.Exit(1)
	}
	if *telHTTP != "" {
		go func() {
			if err := http.ListenAndServe(*telHTTP, tel.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "spritesim: telemetry-http:", err)
			}
		}()
		fmt.Printf("telemetry endpoint on http://%s/ (?format=text for the report)\n", *telHTTP)
	}

	var in io.Reader = os.Stdin
	interactive := true
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spritesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}

	fmt.Printf("spritesim: %d peers ready (type \"help\")\n", *peers)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if interactive {
			fmt.Print("> ")
		}
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !interactive {
			fmt.Println(">", line)
		}
		// Under virtual time, each command runs with the REPL goroutine
		// registered on the event clock so any virtual wait inside the
		// command is scheduled rather than deadlocking.
		done := false
		if clk := net.VirtualClock(); clk != nil {
			clk.Run(func() { done = execute(net, tel, line) })
		} else {
			done = execute(net, tel, line)
		}
		if done {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "spritesim:", err)
		os.Exit(1)
	}
	if tel != nil {
		tel.WriteReport(os.Stdout)
	}
}

// execute runs one command line; it returns true when the session should end.
func execute(net *sprite.Network, tel *sprite.Telemetry, line string) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	fail := func(format string, a ...any) {
		fmt.Printf("error: "+format+"\n", a...)
	}
	switch cmd {
	case "help":
		fmt.Print(helpText)
	case "quit", "exit":
		return true
	case "peers":
		for _, p := range net.Peers() {
			fmt.Println(" ", p)
		}
	case "share":
		if len(args) < 3 {
			fail("usage: share <peer> <docID> <text...>")
			return false
		}
		if err := net.Share(args[0], args[1], strings.Join(args[2:], " ")); err != nil {
			fail("%v", err)
			return false
		}
		terms, _ := net.IndexedTerms(args[1])
		fmt.Printf("shared %s (initial index terms: %s)\n", args[1], strings.Join(terms, ", "))
	case "search":
		if len(args) < 3 {
			fail("usage: search <peer> <k> <query...>")
			return false
		}
		k, err := strconv.Atoi(args[1])
		if err != nil || k < 1 {
			fail("bad k %q", args[1])
			return false
		}
		results, err := net.Search(args[0], strings.Join(args[2:], " "), k)
		if err != nil {
			fail("%v", err)
			return false
		}
		if len(results) == 0 {
			fmt.Println("no results")
			return false
		}
		for i, r := range results {
			fmt.Printf("%2d. %-20s score=%.4f owner=%s\n", i+1, r.DocID, r.Score, r.Owner)
		}
	case "similar":
		if len(args) != 3 {
			fail("usage: similar <peer> <k> <docID>")
			return false
		}
		k, err := strconv.Atoi(args[1])
		if err != nil || k < 1 {
			fail("bad k %q", args[1])
			return false
		}
		results, err := net.SearchSimilar(args[0], args[2], k)
		if err != nil {
			fail("%v", err)
			return false
		}
		if len(results) == 0 {
			fmt.Println("no similar documents")
			return false
		}
		for i, r := range results {
			fmt.Printf("%2d. %-20s cosine=%.4f owner=%s\n", i+1, r.DocID, r.Score, r.Owner)
		}
	case "unshare":
		if len(args) != 1 {
			fail("usage: unshare <docID>")
			return false
		}
		if err := net.Unshare(args[0]); err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("%s withdrawn from the network\n", args[0])
	case "refresh":
		moved, err := net.Refresh()
		if err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("refresh migrated %d index entries\n", moved)
	case "expand":
		if len(args) < 3 {
			fail("usage: expand <peer> <k> <query...>")
			return false
		}
		k, err := strconv.Atoi(args[1])
		if err != nil || k < 1 {
			fail("bad k %q", args[1])
			return false
		}
		results, expansion, err := net.SearchExpanded(args[0], strings.Join(args[2:], " "), k, sprite.Expansion{})
		if err != nil {
			fail("%v", err)
			return false
		}
		if len(expansion) > 0 {
			fmt.Printf("expanded with: %s\n", strings.Join(expansion, ", "))
		}
		if len(results) == 0 {
			fmt.Println("no results")
			return false
		}
		for i, r := range results {
			fmt.Printf("%2d. %-20s score=%.4f owner=%s\n", i+1, r.DocID, r.Score, r.Owner)
		}
	case "learn":
		changes, err := net.LearnCtx(context.Background())
		if err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("learning iteration applied %d index changes\n", changes)
	case "terms":
		if len(args) != 1 {
			fail("usage: terms <docID>")
			return false
		}
		terms, err := net.IndexedTerms(args[0])
		if err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("%s: %s\n", args[0], strings.Join(terms, ", "))
	case "fail":
		if len(args) != 1 {
			fail("usage: fail <peer>")
			return false
		}
		net.FailPeer(args[0])
		fmt.Printf("%s is down\n", args[0])
	case "recover":
		if len(args) != 1 {
			fail("usage: recover <peer>")
			return false
		}
		net.RecoverPeer(args[0])
		fmt.Printf("%s is back\n", args[0])
	case "join":
		if len(args) != 1 {
			fail("usage: join <peer>")
			return false
		}
		if err := net.JoinPeer(args[0]); err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("%s joined the ring; its arc's index entries handed off to it\n", args[0])
	case "leave":
		if len(args) != 1 {
			fail("usage: leave <peer>")
			return false
		}
		handoffs, err := net.LeavePeer(args[0])
		if err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("%s left the ring gracefully; %d index entries handed to its successor\n", args[0], handoffs)
	case "repair":
		st := net.Repair()
		fmt.Printf("repair moved %d entries in %d rounds; %d replica reconciles, %d divergent terms\n",
			st.Moved, st.Rounds, st.Reconciles, st.Divergent)
	case "stabilize":
		rounds := net.Stabilize(100)
		fmt.Printf("overlay stabilized in %d rounds\n", rounds)
	case "save":
		if len(args) != 1 {
			fail("usage: save <file>")
			return false
		}
		f, err := os.Create(args[0])
		if err != nil {
			fail("%v", err)
			return false
		}
		err = net.Save(f)
		f.Close()
		if err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("state saved to %s\n", args[0])
	case "load":
		if len(args) != 1 {
			fail("usage: load <file>")
			return false
		}
		f, err := os.Open(args[0])
		if err != nil {
			fail("%v", err)
			return false
		}
		err = net.Load(f)
		f.Close()
		if err != nil {
			fail("%v", err)
			return false
		}
		fmt.Printf("state loaded from %s\n", args[0])
	case "telemetry":
		if tel == nil {
			fail("telemetry is off (run with -telemetry)")
			return false
		}
		tel.WriteReport(os.Stdout)
	case "stats":
		s := net.Stats()
		fmt.Printf("messages=%d bytes=%d postings=%d alive=%d\n", s.Messages, s.Bytes, s.Postings, s.Peers)
		ix := net.IndexStats()
		fmt.Printf("index: terms=%d postings=%d blocks=%d encoded-bytes=%d bytes/posting=%.2f\n",
			ix.Terms, ix.Postings, ix.Blocks, ix.EncodedBytes, ix.BytesPerPost)
		for _, t := range sortedKeys(s.ByType) {
			fmt.Printf("  %-24s %d\n", t, s.ByType[t])
		}
	case "cache":
		p, r := net.CacheStats()
		fmt.Printf("postings: hits=%d misses=%d coalesced=%d entries=%d hit-rate=%.3f\n",
			p.Hits, p.Misses, p.Coalesced, p.Entries, p.HitRate)
		fmt.Printf("results:  hits=%d misses=%d entries=%d hit-rate=%.3f\n",
			r.Hits, r.Misses, r.Entries, r.HitRate)
	default:
		fail("unknown command %q (try \"help\")", cmd)
	}
	return false
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

const helpText = `commands:
  share <peer> <docID> <text...>   share a document from a peer
  unshare <docID>                  withdraw a document
  search <peer> <k> <query...>     keyword search, top-k results
  expand <peer> <k> <query...>     search with query expansion
  similar <peer> <k> <docID>       find documents similar to one (-sketch)
  refresh                          re-publish all index entries (heal churn)
  learn                            run one learning iteration over all docs
  terms <docID>                    show a document's current index terms
  fail <peer> | recover <peer>     crash / revive a peer
  join <peer> | leave <peer>       grow / shrink the ring with entry handoff
  repair                           peer-driven placement + replica anti-entropy
  stabilize                        repair the overlay after churn
  peers                            list peer names
  save <file> | load <file>        checkpoint / restore network state
  stats                            traffic counters and index footprint
  cache                            query-path cache counters (-cache)
  telemetry                        metrics + query-trace report (-telemetry)
  quit                             exit
`
