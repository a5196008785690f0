// Churn: peers crash and the index survives. With successor replication
// (§7 of the paper) a Repair copies every published index entry to the
// indexing peer's successors, so lookups that route around a dead peer land
// on a replica and queries keep working. The example kills peers one by one and
// shows that a replicated network keeps answering while an unreplicated one
// starts losing terms.
//
// Run with:
//
//	go run ./examples/churn
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"

	"github.com/spritedht/sprite"
)

var library = map[string]string{
	"raft":   "Raft is a consensus algorithm designed for understandability with leader election log replication and safety proofs",
	"paxos":  "Paxos reaches consensus among unreliable processors using proposers acceptors and learners across ballots",
	"chord":  "Chord locates keys in a peer to peer system using consistent hashing and logarithmic finger table routing",
	"bloom":  "A Bloom filter answers set membership probabilistically using multiple hash functions over a shared bit array",
	"lsm":    "Log structured merge trees absorb writes in memory tables and compact sorted runs to amortize disk traffic",
	"crdt":   "Conflict free replicated data types merge concurrent updates deterministically without coordination",
	"vector": "Vector clocks order events in distributed systems by tracking per process logical timestamps",
	"gossip": "Gossip protocols disseminate state epidemically with each peer relaying rumors to random neighbors",
}

var probes = []struct{ query, want string }{
	{"consensus leader election", "raft"},
	{"consistent hashing finger", "chord"},
	{"bloom filter bit array", "bloom"},
	{"merge trees compact sorted", "lsm"},
	{"conflict free coordination", "crdt"},
	{"logical clocks order events", "vector"},
}

func build(replicas int) *sprite.Network {
	net, err := sprite.New(sprite.Options{Peers: 20, Seed: 9, Replicas: replicas})
	if err != nil {
		log.Fatal(err)
	}
	peers := net.Peers()
	for i, id := range slices.Sorted(maps.Keys(library)) {
		if err := net.ShareCtx(context.Background(), peers[i%len(peers)], id, library[id]); err != nil {
			log.Fatal(err)
		}
	}
	return net
}

// answered reports how many probe queries still find their document, a
// degraded ranking (ErrPartialResults) included.
func answered(net *sprite.Network) int {
	hits := 0
	for i, p := range probes {
		res, err := net.SearchCtx(context.Background(), net.Peers()[(i+11)%20], p.query, 3)
		if err != nil && !errors.Is(err, sprite.ErrPartialResults) {
			continue
		}
		for _, r := range res {
			if r.DocID == p.want {
				hits++
				break
			}
		}
	}
	return hits
}

func main() {
	plain := build(0)
	replicated := build(2)
	replicated.Repair() // anti-entropy makes the successor copies

	fmt.Printf("%-28s %-16s %-16s\n", "", "no replication", "2 replicas")
	fmt.Printf("%-28s %d/%d answered    %d/%d answered\n",
		"healthy network", answered(plain), len(probes), answered(replicated), len(probes))

	// Kill peers one at a time (the same ones in both networks).
	victims := plain.Peers()[2:8]
	for i, v := range victims {
		plain.FailPeer(v)
		replicated.FailPeer(v)
		fmt.Printf("%-28s %d/%d answered    %d/%d answered\n",
			fmt.Sprintf("after %d peer(s) failed", i+1),
			answered(plain), len(probes), answered(replicated), len(probes))
	}

	fmt.Println("\nrecovering all peers...")
	for _, v := range victims {
		plain.RecoverPeer(v)
		replicated.RecoverPeer(v)
	}
	plain.Stabilize(50)
	replicated.Stabilize(50)
	fmt.Printf("%-28s %d/%d answered    %d/%d answered\n",
		"after recovery", answered(plain), len(probes), answered(replicated), len(probes))
}
