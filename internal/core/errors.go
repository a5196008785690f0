package core

import (
	"errors"
	"fmt"
	"strings"
)

// This file defines the package's error contract. Callers branch on three
// conditions — "you named a peer that does not exist", "you named a document
// that is not shared", and "the query succeeded only partially" — so each is
// a sentinel or typed error instead of an ad-hoc string.

// ErrNoSuchPeer reports an operation addressed to a peer the network does not
// know. Matched with errors.Is.
var ErrNoSuchPeer = errors.New("core: no such peer")

// ErrNoSuchDoc reports an operation on a document that is not currently
// shared. Matched with errors.Is.
var ErrNoSuchDoc = errors.New("core: no such document")

// ErrPartialResults marks a search that returned a ranked list computed over
// only part of the query's terms, because some terms' postings could not be
// fetched from any holder. Matched with errors.Is; the per-term detail is a
// *PartialError retrieved with errors.As.
var ErrPartialResults = errors.New("core: partial results")

// TermFailure records why one query term contributed nothing to a search:
// every holder of its postings (owner, then replicas when failover is on) was
// unreachable, or the lookup could not resolve a holder at all.
type TermFailure struct {
	Term string
	Err  error
}

// PartialError is the §7 degraded mode made inspectable: the search completed
// and returned a ranked list over the reachable terms, and this error reports
// which terms were dropped and why. It matches errors.Is(err,
// ErrPartialResults) and unwraps per-term causes, so errors.Is(err,
// simnet.ErrUnreachable) also holds when a transport failure was among them.
type PartialError struct {
	Failures []TermFailure
}

// Error lists the dropped terms.
func (e *PartialError) Error() string {
	terms := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		terms[i] = f.Term
	}
	return fmt.Sprintf("core: partial results: %d term(s) dropped (%s)",
		len(e.Failures), strings.Join(terms, ", "))
}

// Is matches the ErrPartialResults sentinel.
func (e *PartialError) Is(target error) bool { return target == ErrPartialResults }

// Unwrap exposes the per-term causes to errors.Is/As chains.
func (e *PartialError) Unwrap() []error {
	out := make([]error, 0, len(e.Failures))
	for _, f := range e.Failures {
		if f.Err != nil {
			out = append(out, f.Err)
		}
	}
	return out
}
