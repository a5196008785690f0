// Adaptive: the Figure 4(c) scenario as an application. A support-ticket
// archive serves one interest pattern (networking problems) for a while,
// then the user base shifts to a different pattern (billing problems). The
// index, tuned for the first pattern, dips — and recovers within a learning
// iteration, while a static frequency index cannot react at all.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"github.com/spritedht/sprite"
)

type ticket struct {
	id, text string
}

var tickets = []ticket{
	{"net-0001", `VPN tunnel drops every hour. The tunnel renegotiation fails
	with a timeout and the client retries until the gateway blacklists it.
	Disabling rekey on the gateway works around the drops.`},
	{"net-0002", `Packet loss on the office uplink spikes during backups. QoS
	queues are misconfigured so backup traffic starves interactive sessions.
	Shaping the backup transfer eliminates the loss.`},
	{"net-0003", `DNS resolution is slow for internal hosts. The resolver
	forwards internal zones upstream before trying the local server. Fixing
	the search domain order restores fast resolution.`},
	{"bill-0001", `Invoice shows duplicate charges for the annual plan after a
	weekend maintenance deploy touched the subscription pipeline. Close
	inspection revealed the renewal job executed twice following a worker
	crash because its idempotency key was never persisted before commit.
	Support escalated once several enterprise accounts reported identical
	double entries. A targeted refund batch was issued the same evening and
	the renewal scheduler gained a durable deduplication ledger.`},
	{"bill-0002", `Proration on mid-cycle upgrades computes the wrong amount
	whenever a customer moves between billing intervals. The upgrade path
	credits the remaining old plan value at the monthly rate instead of the
	discounted annual rate, quietly undercharging large accounts. Finance
	noticed the drift during quarterly reconciliation. The corrected formula
	now derives credits from the actual contracted rate and a regression
	suite locks the behaviour in place.`},
	{"bill-0003", `Tax calculation misses the regional surcharge introduced by
	the new jurisdiction rules this spring. Orders shipped to affected
	regions omit the surcharge line entirely, so exported totals mismatch
	the general ledger during the nightly audit. The root cause was a stale
	tax table snapshot cached by the pricing service. Snapshots now expire
	hourly and the audit gained an alert on ledger mismatches.`},
}

// The two interest patterns: what users search for in each phase.
var netQueries = []string{
	"vpn tunnel drops", "rekey gateway timeout",
	"packet loss backups", "qos starves interactive",
	"slow dns internal", "resolver search domain",
}
var billQueries = []string{
	"duplicate annual charges", "renewal idempotency refund",
	"proration upgrade wrong", "annual rate credits",
	"tax surcharge missing", "ledger totals mismatch",
}

func main() {
	net, err := sprite.New(sprite.Options{
		Peers:             16,
		Seed:              3,
		InitialTerms:      3,
		TermsPerIteration: 2,
		MaxIndexTerms:     6, // tight cap: adapting requires *replacing* terms
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	peers := net.Peers()
	for i, tk := range tickets {
		if err := net.ShareCtx(ctx, peers[i%len(peers)], tk.id, tk.text); err != nil {
			log.Fatal(err)
		}
	}

	// hitRate reports how many queries of a pattern find their ticket in the
	// top 3 (queries are paired with tickets in order, two per ticket).
	hitRate := func(queries []string, prefix string) float64 {
		hits := 0
		for i, q := range queries {
			want := fmt.Sprintf("%s-%04d", prefix, i/2+1)
			res, err := net.SearchCtx(ctx, peers[(i+3)%len(peers)], q, 3)
			if err != nil && !errors.Is(err, sprite.ErrPartialResults) {
				continue
			}
			for _, r := range res {
				if r.DocID == want {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(len(queries))
	}

	fmt.Println("phase 1: users ask about networking problems")
	for iter := 1; iter <= 3; iter++ {
		rate := hitRate(netQueries, "net") // searching also trains
		if _, err := net.LearnCtx(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iteration %d: networking hit rate %.0f%%\n", iter, rate*100)
	}

	fmt.Println("phase 2: interest shifts to billing problems")
	first := true
	for iter := 4; iter <= 7; iter++ {
		rate := hitRate(billQueries, "bill")
		if first {
			fmt.Printf("  iteration %d: billing hit rate %.0f%%  <- first exposure to billing queries\n",
				iter, rate*100)
			first = false
		} else {
			fmt.Printf("  iteration %d: billing hit rate %.0f%%\n", iter, rate*100)
		}
		if _, err := net.LearnCtx(ctx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  final:       billing hit rate %.0f%%\n", hitRate(billQueries, "bill")*100)
}
