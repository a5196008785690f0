package main

import (
	"encoding/binary"
	"math/rand"
)

// Stages of the seed derivation (see subSeed). The order is part of the
// benchmark's definition: renumbering changes every generated input.
const (
	stageCorpus uint64 = iota
	stageQueryGen
	stageSplit
	stageZipf
	stageIssuer
	stageLink
	stageWarmup
	stageFill
)

type opKind uint8

const (
	opQuery opKind = iota
	opUnshare
	opShare
	opLearn
)

// op is one operation of the timed stream. For opQuery, arg indexes the
// held-out test queries and issuer the peer that asks; for the write kinds,
// arg indexes the corpus documents (the writer is the document's owner).
type op struct {
	kind   opKind
	issuer int32
	arg    int32
}

// zipfSlope is the paper's w-zipf query-popularity slope (§6.3).
const zipfSlope = 0.5

// genOps builds the closed-loop operation stream: queries Zipf-drawn over the
// nTest held-out queries, issued from peers in rotation starting at a seeded
// offset, with — when writeEvery > 0 — one write after every writeEvery
// queries, cycling Unshare → Share → LearnDoc on one document before moving
// to the next, round-robin over the corpus. That cycle never fails: a
// document is always shared when it is unshared or learned, and unshared when
// it is shared again.
func genOps(seed int64, queries, nTest, nPeers, nDocs, writeEvery int) []op {
	zrng := rand.New(rand.NewSource(subSeed(seed, stageZipf)))
	z := newZipf(nTest, zipfSlope)
	first := rand.New(rand.NewSource(subSeed(seed, stageIssuer))).Intn(nPeers)

	n := queries
	if writeEvery > 0 {
		n += queries / writeEvery
	}
	ops := make([]op, 0, n)
	writes := 0
	for q := 0; q < queries; q++ {
		ops = append(ops, op{kind: opQuery, issuer: int32((first + q) % nPeers), arg: int32(z.draw(zrng))})
		if writeEvery > 0 && (q+1)%writeEvery == 0 {
			ops = append(ops, op{kind: opUnshare + opKind(writes%3), arg: int32(writes / 3 % nDocs)})
			writes++
		}
	}
	return ops
}

// opsBytes serializes a stream for hashing and comparison.
func opsBytes(ops []op) []byte {
	out := make([]byte, 0, 9*len(ops))
	for _, o := range ops {
		out = append(out, byte(o.kind))
		out = binary.LittleEndian.AppendUint32(out, uint32(o.issuer))
		out = binary.LittleEndian.AppendUint32(out, uint32(o.arg))
	}
	return out
}
