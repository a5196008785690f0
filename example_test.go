package sprite_test

import (
	"context"
	"fmt"
	"log"

	"github.com/spritedht/sprite"
)

// The smallest complete program: share two documents and search.
func ExampleNew() {
	net, err := sprite.New(sprite.Options{Peers: 8, Seed: 100})
	if err != nil {
		log.Fatal(err)
	}
	net.Share("peer0", "chord", "Chord is a scalable lookup protocol for peer to peer systems")
	net.Share("peer1", "porter", "The Porter stemmer strips suffixes from English words")

	results, _ := net.Search("peer3", "lookup protocol", 5)
	for _, r := range results {
		fmt.Println(r.DocID)
	}
	// Output:
	// chord
}

// Learning promotes terms that appear in queries but were not frequent
// enough for the initial index.
func ExampleNetwork_LearnCtx() {
	net, err := sprite.New(sprite.Options{
		Peers:             8,
		Seed:              100,
		InitialTerms:      1,
		TermsPerIteration: 2,
		MaxIndexTerms:     4,
	})
	if err != nil {
		log.Fatal(err)
	}
	net.ShareTerms("peer0", "doc", map[string]int{"popular": 9, "obscure": 1})

	// Before learning, the rare term is not indexed.
	before, _ := net.SearchTerms("peer2", []string{"obscure"}, 5)
	fmt.Println("before:", len(before))

	// A user query pairs the indexed term with the rare one; the indexing
	// peer remembers it, and the next learning iteration indexes "obscure".
	net.SearchTerms("peer2", []string{"popular", "obscure"}, 5)
	net.LearnCtx(context.Background())

	after, _ := net.SearchTerms("peer2", []string{"obscure"}, 5)
	fmt.Println("after:", len(after))
	// Output:
	// before: 0
	// after: 1
}

// IndexedTerms exposes which terms a document is currently findable under.
func ExampleNetwork_IndexedTerms() {
	net, err := sprite.New(sprite.Options{Peers: 4, Seed: 100, InitialTerms: 2})
	if err != nil {
		log.Fatal(err)
	}
	net.ShareTerms("peer0", "doc", map[string]int{"alpha": 3, "beta": 2, "gamma": 1})
	terms, _ := net.IndexedTerms("doc")
	fmt.Println(terms)
	// Output:
	// [alpha beta]
}

// Unshare withdraws a document from the distributed index entirely.
func ExampleNetwork_Unshare() {
	net, err := sprite.New(sprite.Options{Peers: 4, Seed: 100})
	if err != nil {
		log.Fatal(err)
	}
	net.ShareTerms("peer0", "doc", map[string]int{"fleeting": 2})
	net.Unshare("doc")
	results, _ := net.SearchTerms("peer1", []string{"fleeting"}, 5)
	fmt.Println(len(results))
	// Output:
	// 0
}
