// Package chordid implements the 128-bit circular identifier space used by
// the Chord overlay. Identifiers are produced by hashing keys (terms, query
// strings, node names) with MD5, exactly as in the SPRITE paper ("All terms
// are hashed using MD5", §6), and compared on a ring of size 2^128.
//
// The package provides the modular arithmetic Chord needs: clockwise interval
// tests for successor resolution, modular addition for finger-table offsets,
// and clockwise distance for "closest term" selection during
// SPRITE's de-duplicated query polling (§3).
package chordid

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Bits is the width of the identifier space in bits.
const Bits = 128

// Bytes is the width of the identifier space in bytes.
const Bytes = Bits / 8

// ID is a point on the Chord ring: a 128-bit unsigned integer in big-endian
// byte order. The zero value is the identifier 0, which is a valid ring
// position. IDs are comparable and usable as map keys.
type ID [Bytes]byte

// HashKey maps an arbitrary string key onto the ring with MD5.
func HashKey(key string) ID {
	return ID(md5.Sum([]byte(key)))
}

// HashBytes maps a byte slice onto the ring with MD5.
func HashBytes(b []byte) ID {
	return ID(md5.Sum(b))
}

// FromUint64 returns the ID whose numeric value is v. It is mainly useful in
// tests, where small, legible ring positions are easier to reason about.
func FromUint64(v uint64) ID {
	var id ID
	for i := Bytes - 1; i >= Bytes-8; i-- {
		id[i] = byte(v)
		v >>= 8
	}
	return id
}

// Uint64 returns the low 64 bits of the identifier.
func (id ID) Uint64() uint64 {
	var v uint64
	for i := Bytes - 8; i < Bytes; i++ {
		v = v<<8 | uint64(id[i])
	}
	return v
}

// String renders the identifier as 32 lowercase hex digits.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short renders the first 4 bytes of the identifier, for compact logs.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// ParseID parses a 32-digit hex string produced by String.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("chordid: parse %q: %w", s, err)
	}
	if len(b) != Bytes {
		return id, fmt.Errorf("chordid: parse %q: want %d bytes, got %d", s, Bytes, len(b))
	}
	copy(id[:], b)
	return id, nil
}

// Cmp compares two identifiers as unsigned integers, returning -1, 0, or +1.
func (id ID) Cmp(other ID) int {
	ahi, alo := id.words()
	bhi, blo := other.words()
	switch {
	case ahi < bhi:
		return -1
	case ahi > bhi:
		return 1
	case alo < blo:
		return -1
	case alo > blo:
		return 1
	}
	return 0
}

// words splits the big-endian identifier into its high and low 64-bit halves.
// The arithmetic methods work on these words rather than byte by byte: ring
// comparisons sit on the innermost loop of every routing hop.
func (id ID) words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(id[:8]), binary.BigEndian.Uint64(id[8:])
}

// fromWords reassembles an identifier from its 64-bit halves.
func fromWords(hi, lo uint64) ID {
	var out ID
	binary.BigEndian.PutUint64(out[:8], hi)
	binary.BigEndian.PutUint64(out[8:], lo)
	return out
}

// Less reports whether id < other as unsigned integers. Note that on a ring
// plain ordering is rarely what you want; see Between.
func (id ID) Less(other ID) bool { return id.Cmp(other) < 0 }

// Add returns id + other modulo 2^128.
func (id ID) Add(other ID) ID {
	ahi, alo := id.words()
	bhi, blo := other.words()
	lo, carry := bits.Add64(alo, blo, 0)
	hi, _ := bits.Add64(ahi, bhi, carry)
	return fromWords(hi, lo)
}

// Sub returns id - other modulo 2^128. When id and other are ring positions
// this is the clockwise distance from other to id.
func (id ID) Sub(other ID) ID {
	ahi, alo := id.words()
	bhi, blo := other.words()
	lo, borrow := bits.Sub64(alo, blo, 0)
	hi, _ := bits.Sub64(ahi, bhi, borrow)
	return fromWords(hi, lo)
}

// Distance returns the clockwise distance from id to other: the number of
// steps walking the ring in the direction of increasing identifiers needed to
// reach other from id.
func (id ID) Distance(other ID) ID {
	return other.Sub(id)
}

// Between reports whether id lies on the open clockwise arc (a, b). On a
// ring the arc may wrap through zero; when a == b the arc spans the whole
// ring excluding a itself, matching Chord's convention.
func (id ID) Between(a, b ID) bool {
	ca := a.Cmp(b)
	switch {
	case ca < 0: // no wrap: a < id < b
		return id.Cmp(a) > 0 && id.Cmp(b) < 0
	case ca > 0: // wraps through zero: id > a or id < b
		return id.Cmp(a) > 0 || id.Cmp(b) < 0
	default: // a == b: whole ring except a
		return id.Cmp(a) != 0
	}
}

// BetweenRightIncl reports whether id lies on the clockwise arc (a, b]. This
// is the test Chord uses to decide whether a key is owned by the successor b.
func (id ID) BetweenRightIncl(a, b ID) bool {
	if id.Cmp(b) == 0 {
		return true
	}
	return id.Between(a, b)
}

// BetweenLeftIncl reports whether id lies on the clockwise arc [a, b).
func (id ID) BetweenLeftIncl(a, b ID) bool {
	if id.Cmp(a) == 0 {
		return true
	}
	return id.Between(a, b)
}
