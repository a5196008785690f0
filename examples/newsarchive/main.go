// Newsarchive: a realistic document-sharing workload. A newsroom's peers
// share articles into a SPRITE network; readers search with short keyword
// queries that rarely match an article's most *frequent* words. The example
// shows how the query-driven index catches up: recall over a fixed query log
// improves after each learning iteration.
//
// Run with:
//
//	go run ./examples/newsarchive
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/spritedht/sprite"
)

// article is one shared document with the queries its readers actually use
// to look for it — the "characteristic terms" of the SPRITE paper's first
// observation, which are not necessarily the article's most frequent words.
type article struct {
	id, text string
	queries  []string
}

var archive = []article{
	{
		id: "storage-outage",
		text: `The cloud storage outage on Friday disrupted file access for
		millions of users. The outage began when a routine maintenance window
		on the storage fleet triggered cascading restarts across the region.
		Engineers traced the storage failure to a misconfigured quorum
		setting. Service was restored after six hours of staged recovery.`,
		queries: []string{"quorum misconfigured", "cascading restarts region"},
	},
	{
		id: "fusion-milestone",
		text: `Researchers announced a fusion energy milestone this week: the
		reactor sustained plasma for a record duration. The fusion experiment
		used improved magnetic confinement, and the team credited new
		superconducting coils. Energy output still fell short of input power,
		but the plasma stability results encouraged the fusion community.`,
		queries: []string{"superconducting coils confinement", "plasma stability record"},
	},
	{
		id: "chess-engine",
		text: `An open source chess engine defeated the reigning computer
		champion in a hundred game match. The engine evaluates positions with
		a small neural network distilled from self play. Its search prunes
		aggressively, trading depth for evaluation quality in the match.`,
		queries: []string{"neural network self play", "search prunes depth"},
	},
	{
		id: "coral-survey",
		text: `A decade long survey of coral reefs found patchy recovery after
		repeated bleaching events. The survey teams catalogued reef health
		across four hundred sites. Cooler currents sheltered some coral
		populations, and those refuges now anchor restoration planning.`,
		queries: []string{"bleaching refuges restoration", "cooler currents sheltered"},
	},
	{
		id: "transit-plan",
		text: `The city council approved a transit plan adding two light rail
		lines and a network of bus corridors. The transit vote followed years
		of debate over funding. Construction on the first rail line begins in
		spring, with corridors rolling out by autumn.`,
		queries: []string{"light rail corridors", "council funding debate"},
	},
	{
		id: "wheat-genome",
		text: `Scientists published a complete wheat genome map, resolving the
		crop's notoriously repetitive chromosomes. The genome work pinpoints
		genes for drought tolerance and rust resistance, giving breeders
		precise targets for the next generation of wheat varieties.`,
		queries: []string{"drought tolerance rust resistance", "repetitive chromosomes breeders"},
	},
}

func main() {
	net, err := sprite.New(sprite.Options{
		Peers:         24,
		Seed:          11,
		InitialTerms:  3, // tight budget: frequency alone will not cover the queries
		MaxIndexTerms: 12,
	})
	if err != nil {
		log.Fatal(err)
	}

	peers := net.Peers()
	for i, a := range archive {
		if err := net.Share(peers[i%len(peers)], a.id, a.text); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("shared %d articles across %d peers\n\n", len(archive), len(peers))

	// The fixed query log: every reader query paired with the article it
	// seeks. recall() reports the fraction the network can currently serve.
	recall := func() float64 {
		hits, n := 0, 0
		for qi, a := range archive {
			for _, q := range a.queries {
				n++
				// Readers issue from arbitrary peers.
				res, err := net.Search(peers[(qi+7)%len(peers)], q, 3)
				if err != nil {
					continue
				}
				for _, r := range res {
					if r.DocID == a.id {
						hits++
						break
					}
				}
			}
		}
		return float64(hits) / float64(n)
	}

	fmt.Printf("recall over the query log before learning: %.0f%%\n", recall()*100)
	for iter := 1; iter <= 3; iter++ {
		changes, err := net.LearnCtx(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iteration %d: %2d index changes, recall now %.0f%%\n",
			iter, changes, recall()*100)
	}

	fmt.Println("\nindex terms after learning:")
	for _, a := range archive {
		terms, _ := net.IndexedTerms(a.id)
		fmt.Printf("  %-16s %s\n", a.id, strings.Join(terms, ", "))
	}

	s := net.Stats()
	fmt.Printf("\ntraffic: %d messages, %d simulated bytes, %d postings\n",
		s.Messages, s.Bytes, s.Postings)
}
