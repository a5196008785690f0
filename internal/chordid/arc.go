package chordid

import "fmt"

// Arc is the half-open clockwise keyspace interval (From, To]. It is the
// ownership region of the node with identifier To whose predecessor has
// identifier From: exactly the keys k with k.BetweenRightIncl(From, To).
// When From == To the arc covers the whole ring (a singleton overlay owns
// everything), matching the Between conventions above.
type Arc struct {
	From ID // exclusive lower bound (the predecessor's identifier)
	To   ID // inclusive upper bound (the owner's identifier)
}

// OwnerArc is the arc owned by a node given its predecessor: (pred, self].
func OwnerArc(pred, self ID) Arc { return Arc{From: pred, To: self} }

// Contains reports whether key falls inside the arc.
func (a Arc) Contains(key ID) bool { return key.BetweenRightIncl(a.From, a.To) }

// ContainsKey reports whether the hashed text key falls inside the arc.
func (a Arc) ContainsKey(key string) bool { return a.Contains(HashKey(key)) }

// IsFull reports whether the arc covers the entire ring (From == To).
func (a Arc) IsFull() bool { return a.From.Cmp(a.To) == 0 }

// Span returns the clockwise length of the arc: the number of identifiers in
// (From, To]. A full arc reports the maximum ID (2^128-1 ≈ the whole ring).
func (a Arc) Span() ID {
	if a.IsFull() {
		var max ID
		for i := range max {
			max[i] = 0xff
		}
		return max
	}
	return a.To.Sub(a.From)
}

func (a Arc) String() string {
	return fmt.Sprintf("(%s, %s]", a.From.Short(), a.To.Short())
}
