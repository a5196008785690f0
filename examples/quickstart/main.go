// Quickstart: build a small SPRITE network, share a few documents, search,
// and watch one learning iteration promote the terms users actually query.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"
	"strings"

	"github.com/spritedht/sprite"
)

func main() {
	// A 16-peer ring on a simulated, message-metered network.
	net, err := sprite.New(sprite.Options{Peers: 16, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Peers share documents. Only a handful of representative terms per
	// document enter the distributed index — not the full text.
	docs := map[string]string{
		"chord-paper":  "Chord is a scalable peer to peer lookup service for internet applications. Lookup resolves in logarithmic hops using finger tables over a consistent hash ring.",
		"porter-paper": "An algorithm for suffix stripping. The Porter stemmer removes endings such as ed and ing from English words to unify related terms for retrieval.",
		"sprite-paper": "SPRITE selects a small set of representative index terms per document and progressively tunes the selection by learning from past keyword queries in a DHT network.",
	}
	ctx := context.Background()
	peers := net.Peers()
	for i, id := range slices.Sorted(maps.Keys(docs)) {
		if err := net.ShareCtx(ctx, peers[i%len(peers)], id, docs[id]); err != nil {
			log.Fatal(err)
		}
	}

	show := func(query string) {
		// An error wrapping ErrPartialResults comes with the ranking over
		// the terms whose holders answered; any other error has none.
		results, err := net.SearchCtx(ctx, peers[5], query, 5)
		if err != nil && !errors.Is(err, sprite.ErrPartialResults) {
			log.Fatal(err)
		}
		fmt.Printf("search %-28q -> ", query)
		if len(results) == 0 {
			fmt.Println("(no results)")
			return
		}
		var hits []string
		for _, r := range results {
			hits = append(hits, fmt.Sprintf("%s (%.3f)", r.DocID, r.Score))
		}
		fmt.Println(strings.Join(hits, ", "))
	}

	fmt.Println("== before learning ==")
	show("peer to peer lookup")
	show("suffix stripping stemmer")
	// This query pairs an indexed term with one that did not make the
	// initial frequency cut; the document is found via the indexed term, and
	// the full query is remembered by the indexing peers.
	show("chord finger tables")

	// Owners poll the indexing peers and re-tune their documents' terms.
	changes, err := net.LearnCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlearning iteration applied %d index changes\n\n", changes)

	fmt.Println("== after learning ==")
	show("finger tables")

	terms, _ := net.IndexedTerms("chord-paper")
	fmt.Printf("\nchord-paper is now indexed under: %s\n", strings.Join(terms, ", "))

	s := net.Stats()
	fmt.Printf("network traffic: %d messages, %d simulated bytes, %d postings stored\n",
		s.Messages, s.Bytes, s.Postings)
}
