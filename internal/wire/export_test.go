package wire

import (
	"reflect"
	"sort"
)

// BinaryPrototypes returns one zero prototype per registered binary codec,
// ordered by kind. Tests use it to round-trip every protocol payload
// generically.
func BinaryPrototypes() []any {
	byKind := codecs().byKind
	kinds := make([]int, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	out := make([]any, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, reflect.New(byKind[uint16(k)].typ).Elem().Interface())
	}
	return out
}
