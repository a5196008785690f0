package wire_test

import (
	"reflect"
	"testing"

	"github.com/spritedht/sprite/internal/wire"

	// Imported for their init-time wire.RegisterBinary calls: the fuzz below
	// round-trips every registered protocol payload, so the registries of
	// both protocol packages must be populated.
	_ "github.com/spritedht/sprite/internal/chord"
	_ "github.com/spritedht/sprite/internal/core"
)

// feeder turns the fuzzer's byte string into an endless, deterministic
// stream of primitive values for the reflection filler. Wrapping around the
// input keeps every byte of fuzz data influential without ever running dry.
type feeder struct {
	data []byte
	off  int
}

func (f *feeder) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.off%len(f.data)]
	f.off++
	return b
}

func (f *feeder) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

func (f *feeder) str() string {
	n := int(f.next() % 8)
	b := make([]byte, n)
	for i := range b {
		b[i] = f.next()
	}
	return string(b)
}

// fill populates v with deterministic pseudo-random content drawn from fd.
// It covers exactly the kinds protocol payloads use; a payload gaining a
// field of an unsupported kind fails the fuzz loudly so the filler is
// extended alongside the codec.
func fill(t *testing.T, v reflect.Value, fd *feeder) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fd.str())
	case reflect.Bool:
		v.SetBool(fd.next()&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(fd.uint64()) >> 16)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(fd.uint64() >> 16)
	case reflect.Float32, reflect.Float64:
		// Built from an integer so the value is finite and exactly
		// representable — NaN would break DeepEqual, infinities would not.
		v.SetFloat(float64(int64(fd.uint64())>>32) / 16)
	case reflect.Slice:
		n := int(fd.next() % 4)
		if n == 0 {
			return // nil: the codecs decode empty containers as nil
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(t, s.Index(i), fd)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), fd)
		}
	case reflect.Map:
		n := int(fd.next() % 4)
		if n == 0 {
			return
		}
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(t, k, fd)
			mv := reflect.New(v.Type().Elem()).Elem()
			fill(t, mv, fd)
			m.SetMapIndex(k, mv)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			fill(t, v.Field(i), fd)
		}
	case reflect.Interface:
		// An `any` field carries another protocol payload (chord's routed
		// envelope): nil, or one of the registered payloads that has no such
		// field itself — envelopes do not nest.
		var plain []reflect.Type
		for _, proto := range wire.BinaryPrototypes() {
			if pt := reflect.TypeOf(proto); !hasInterfaceField(pt) {
				plain = append(plain, pt)
			}
		}
		pick := int(fd.next()) % (len(plain) + 1)
		if pick == len(plain) {
			return
		}
		inner := reflect.New(plain[pick]).Elem()
		fill(t, inner, fd)
		v.Set(inner)
	default:
		t.Fatalf("fill: unsupported kind %v in %v — extend the filler alongside the new payload field", v.Kind(), v.Type())
	}
}

func hasInterfaceField(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() == reflect.Interface {
			return true
		}
	}
	return false
}

// FuzzBinaryProtocol round-trips EVERY registered protocol payload — chord's
// and core's, discovered through wire.BinaryPrototypes — filled with
// fuzz-derived content, and demands the decoded value equal the original
// under reflect.DeepEqual: a codec that drops, reorders or truncates a field
// fails here. It then feeds the decoder truncations, single-bit corruptions,
// and raw fuzz garbage, which must all fail (or decode to something) without
// panicking or sizing an allocation from an unvalidated length.
func FuzzBinaryProtocol(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("seed-data-1234567890 with spread"), uint8(3))
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f, 0x00, 0xfe, 0x41}, uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, flip uint8) {
		protos := wire.BinaryPrototypes()
		if len(protos) == 0 {
			t.Fatal("no binary codecs registered — chord/core imports lost their init effect")
		}
		for _, proto := range protos {
			fd := &feeder{data: data}
			v := reflect.New(reflect.TypeOf(proto)).Elem()
			fill(t, v, fd)
			val := v.Interface()

			enc, ok := wire.AppendBinary(nil, val)
			if !ok {
				t.Fatalf("%T listed by BinaryPrototypes but not encodable", val)
			}
			dec, err := wire.DecodeBinary(enc)
			if err != nil {
				t.Fatalf("decode own encoding of %#v: %v", val, err)
			}
			if !reflect.DeepEqual(dec, val) {
				t.Fatalf("round trip changed %T:\n in: %#v\nout: %#v", val, val, dec)
			}

			for n := 0; n < len(enc); n++ {
				wire.DecodeBinary(enc[:n]) // must not panic
			}
			if len(enc) > 0 {
				mut := append([]byte(nil), enc...)
				mut[int(flip)%len(mut)] ^= 1 << (flip % 8)
				wire.DecodeBinary(mut) // must not panic
			}
		}
		wire.DecodeBinary(data) // raw garbage must not panic
	})
}
