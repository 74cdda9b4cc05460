package keyenc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestUint64KeyOrder(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 1}, {1, 2}, {255, 256}, {65535, 65536}, {1 << 32, 1<<32 + 1},
	}
	for _, c := range cases {
		if bytes.Compare(Uint64Key(c.a), Uint64Key(c.b)) >= 0 {
			t.Fatalf("order violated for %d < %d", c.a, c.b)
		}
	}
}

func TestDecodeUint64(t *testing.T) {
	v, err := DecodeUint64(Uint64Key(123456789))
	if err != nil || v != 123456789 {
		t.Fatalf("got %d, %v", v, err)
	}
	if _, err := DecodeUint64([]byte{1, 2}); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestCompositeOrder(t *testing.T) {
	a := CompositeUint64(1, 5)
	b := CompositeUint64(1, 6)
	c := CompositeUint64(2, 0)
	if bytes.Compare(a, b) >= 0 || bytes.Compare(b, c) >= 0 {
		t.Fatal("composite order violated")
	}
}

func TestEncoderComponents(t *testing.T) {
	e := NewEncoder(32)
	e.Uint64(7).Uint32(3).Uint16(1).Uint8(9)
	if len(e.Bytes()) != 8+4+2+1 {
		t.Fatalf("unexpected length %d", len(e.Bytes()))
	}
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestInt64Order(t *testing.T) {
	vals := []int64{-1 << 62, -1000, -1, 0, 1, 1000, 1 << 62}
	for i := 1; i < len(vals); i++ {
		a := NewEncoder(8).Int64(vals[i-1]).Bytes()
		b := NewEncoder(8).Int64(vals[i]).Bytes()
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("int64 order violated for %d < %d", vals[i-1], vals[i])
		}
	}
}

func TestStringEscaping(t *testing.T) {
	// Strings with embedded zero bytes must still order correctly and not
	// collide.
	a := NewEncoder(8).String("a\x00b").Bytes()
	b := NewEncoder(8).String("a\x00c").Bytes()
	if bytes.Equal(a, b) || bytes.Compare(a, b) >= 0 {
		t.Fatal("string escaping broken")
	}
	// Prefix ordering across multi-component keys: ("a", 2) < ("ab", 1).
	k1 := NewEncoder(8).String("a").Uint64(2).Bytes()
	k2 := NewEncoder(8).String("ab").Uint64(1).Bytes()
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal("component boundary ordering broken")
	}
}

func TestSuccessorAndPrefixEnd(t *testing.T) {
	k := Uint64Key(42)
	if bytes.Compare(Successor(k), k) <= 0 {
		t.Fatal("successor not greater")
	}
	end := PrefixEnd([]byte{0x01, 0xFF})
	if bytes.Compare(end, []byte{0x01, 0xFF}) <= 0 {
		t.Fatal("prefix end not greater")
	}
	if PrefixEnd([]byte{0xFF, 0xFF}) != nil {
		t.Fatal("all-0xFF prefix should have no end")
	}
}

func TestPropertyUint64OrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		cmp := bytes.Compare(Uint64Key(a), Uint64Key(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompositeOrderPreserving(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64) bool {
		ka := CompositeUint64(a1, a2)
		kb := CompositeUint64(b1, b2)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a1 < b1 || (a1 == b1 && a2 < b2):
			return cmp < 0
		case a1 == b1 && a2 == b2:
			return cmp == 0
		default:
			return cmp > 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		ka := NewEncoder(len(a) + 2).String(a).Bytes()
		kb := NewEncoder(len(b) + 2).String(b).Bytes()
		cmp := bytes.Compare(ka, kb)
		want := bytes.Compare([]byte(a), []byte(b))
		if want == 0 {
			return cmp == 0
		}
		return (cmp < 0) == (want < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBoundaries(t *testing.T) {
	// max >= n: exactly the n-1 boundaries max*i/n+1.
	for _, c := range []struct {
		max  uint64
		n    int
		want []uint64
	}{
		{4, 4, []uint64{2, 3, 4}},
		{40, 4, []uint64{11, 21, 31}},
		{40000, 4, []uint64{10001, 20001, 30001}},
		{100000, 4, []uint64{25001, 50001, 75001}},
		{1 << 40, 4, []uint64{1<<38 + 1, 1<<39 + 1, 3<<38 + 1}},
		{1000, 2, []uint64{501}},
		{10, 3, []uint64{4, 7}},
		{100, 1, nil},
		{100, 0, nil},
	} {
		got := UniformBoundaries(c.max, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("UniformBoundaries(%d,%d) = %d boundaries, want %d", c.max, c.n, len(got), len(c.want))
		}
		for i, w := range c.want {
			if !bytes.Equal(got[i], Uint64Key(w)) {
				t.Fatalf("UniformBoundaries(%d,%d)[%d] = %x, want key %d", c.max, c.n, i, got[i], w)
			}
		}
	}
	// max < n: fewer ranges, strictly increasing boundaries in (1, max].
	for _, c := range []struct {
		max uint64
		n   int
	}{{1, 4}, {2, 4}, {3, 4}, {3, 8}, {5, 16}} {
		got := UniformBoundaries(c.max, c.n)
		if len(got) > int(c.max)-1 {
			t.Fatalf("UniformBoundaries(%d,%d) = %d boundaries for %d keys", c.max, c.n, len(got), c.max)
		}
		prev := uint64(1)
		for _, b := range got {
			v, _ := DecodeUint64(b)
			if v <= prev || v > c.max {
				t.Fatalf("UniformBoundaries(%d,%d) boundary %d out of order or range (prev %d)", c.max, c.n, v, prev)
			}
			prev = v
		}
	}
}
