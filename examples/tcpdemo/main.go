// Tcpdemo: the same SPRITE network, but over real loopback TCP sockets
// instead of the in-process simulator. Every publish, lookup hop, postings
// fetch, learning poll, and expansion download in this program is a
// binary-framed RPC over a pooled connection.
//
// Run with:
//
//	go run ./examples/tcpdemo
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/spritedht/sprite"
)

func main() {
	net, err := sprite.New(sprite.Options{
		Peers: 8,
		TCP:   true, // loopback sockets; peer names are host:port addresses
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	peers := net.Peers()
	fmt.Println("peers listening on:")
	for _, p := range peers {
		fmt.Println("  ", p)
	}

	docs := map[string]string{
		"tcp-rfc":  "The transmission control protocol provides reliable ordered byte streams over unreliable datagrams using sequence numbers acknowledgements and retransmission",
		"udp-rfc":  "The user datagram protocol offers connectionless best effort delivery of datagrams with minimal overhead and no retransmission",
		"quic-rfc": "QUIC multiplexes streams over encrypted datagrams with connection migration and loss recovery replacing much of the transport layer",
	}
	i := 0
	for id, text := range docs {
		if err := net.Share(peers[i%len(peers)], id, text); err != nil {
			log.Fatal(err)
		}
		i++
	}

	res, err := net.Search(peers[5], "control protocol datagrams", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsearch \"control protocol datagrams\":")
	for _, r := range res {
		fmt.Printf("  %-10s score=%.3f owner=%s\n", r.DocID, r.Score, r.Owner)
	}

	// The learning loop runs over the sockets too.
	if _, err := net.Search(peers[2], "retransmission sequence acknowledgements", 5); err != nil {
		log.Fatal(err)
	}
	changes, err := net.Learn()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlearning over TCP applied %d index changes\n", changes)

	terms, _ := net.IndexedTerms("tcp-rfc")
	fmt.Printf("tcp-rfc indexed under: %s\n", strings.Join(terms, ", "))

	// Expanded search: term vectors of the top hits are downloaded from
	// their owner peers over the wire.
	exp, expansion, err := net.SearchExpanded(peers[6], "datagrams", 5, sprite.Expansion{Terms: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpanded search \"datagrams\" (+%s):\n", strings.Join(expansion, ", +"))
	for _, r := range exp {
		fmt.Printf("  %-10s score=%.3f\n", r.DocID, r.Score)
	}
}
