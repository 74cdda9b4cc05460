// Package keyenc provides order-preserving encodings of composite keys into
// byte strings.
//
// Every index in the system stores keys as byte strings compared with
// bytes.Compare.  Workloads build composite keys (for example TATP's
// CallForwarding primary key is <s_id, sf_type, start_time>) with an
// Encoder; the encoding guarantees that the byte-wise order of the encoded
// keys equals the lexicographic order of the component tuples.
package keyenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Encoder incrementally builds an order-preserving composite key.
// The zero value is an empty key ready for use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity pre-allocated for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Reset discards the key built so far and keeps the underlying buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded key.  The slice is owned by the Encoder; copy it
// if it must outlive the next Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint64 appends an unsigned 64-bit component.
func (e *Encoder) Uint64(v uint64) *Encoder {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Uint32 appends an unsigned 32-bit component.
func (e *Encoder) Uint32(v uint32) *Encoder {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Uint16 appends an unsigned 16-bit component.
func (e *Encoder) Uint16(v uint16) *Encoder {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Uint8 appends an unsigned 8-bit component.
func (e *Encoder) Uint8(v uint8) *Encoder {
	e.buf = append(e.buf, v)
	return e
}

// Int64 appends a signed 64-bit component.  The sign bit is flipped so that
// negative values order before positive ones.
func (e *Encoder) Int64(v int64) *Encoder {
	return e.Uint64(uint64(v) ^ (1 << 63))
}

// String appends a string component.  The string is terminated with a 0x00
// byte and any embedded 0x00 is escaped as 0x00 0xFF, which keeps prefix
// ordering correct for multi-component keys.
func (e *Encoder) String(s string) *Encoder {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			e.buf = append(e.buf, 0x00, 0xFF)
		} else {
			e.buf = append(e.buf, c)
		}
	}
	e.buf = append(e.buf, 0x00)
	return e
}

// Uint64Key encodes a single uint64 as a standalone key.
func Uint64Key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeUint64 decodes the first 8 bytes of key as a big-endian uint64.
func DecodeUint64(key []byte) (uint64, error) {
	if len(key) < 8 {
		return 0, fmt.Errorf("keyenc: key too short for uint64 (%d bytes)", len(key))
	}
	return binary.BigEndian.Uint64(key), nil
}

// UniformBoundaries splits the uint64 key space [1, max] into at most n
// contiguous ranges of near-equal width and returns the internal
// boundaries (each the Uint64Key of a range's lowest key).  When max >= n
// there are exactly n-1 boundaries.  A key space smaller than the partition
// count (one TPC-B branch spread over four workers) cannot fill n ranges:
// duplicate and out-of-range boundaries are dropped, so the table gets
// fewer partitions.
func UniformBoundaries(max uint64, n int) [][]byte {
	if n <= 1 {
		return nil
	}
	out := make([][]byte, 0, n-1)
	var prev uint64
	for i := 1; i < n; i++ {
		b := max*uint64(i)/uint64(n) + 1
		if b <= 1 || b == prev || b > max {
			continue
		}
		prev = b
		out = append(out, Uint64Key(b))
	}
	return out
}

// CompositeUint64 encodes a sequence of uint64 components.
func CompositeUint64(vs ...uint64) []byte {
	e := NewEncoder(8 * len(vs))
	for _, v := range vs {
		e.Uint64(v)
	}
	return append([]byte(nil), e.Bytes()...)
}

// Compare compares two encoded keys.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Successor returns the smallest key strictly greater than key (the key
// followed by a zero byte).  It never modifies its argument.
func Successor(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}

// PrefixEnd returns the smallest key that is greater than every key with the
// given prefix, or nil if no such key exists (the prefix is all 0xFF).
// It is used to turn a prefix into an exclusive range end for scans.
func PrefixEnd(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
