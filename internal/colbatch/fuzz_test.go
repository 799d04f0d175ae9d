package colbatch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"parajoin/internal/rel"
)

// FuzzDecodeBatch fuzzes the batch decoder two ways. First it feeds the raw
// input to Decode, which mostly exercises the header validation (a random
// mutation rarely survives the CRC). Then it strips any recognizable header
// and re-wraps the remainder as a payload under a freshly computed valid
// header, so the column decoders — varint bounds, dictionary indexes,
// encoding bytes — see the mutated bytes directly. Anything that decodes must
// re-encode and decode to the same rows.
func FuzzDecodeBatch(f *testing.F) {
	var e Encoder
	seed := func(rows []rel.Tuple) {
		data, err := e.AppendTuples(nil, rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(nil)
	seed([]rel.Tuple{{0}})
	seed([]rel.Tuple{{1, -1}, {1, -1}, {1, -1}})
	seed([]rel.Tuple{{5, 1 << 40}, {5, -(1 << 40)}, {6, 0}})
	dict := make([]rel.Tuple, 64)
	for i := range dict {
		dict[i] = rel.Tuple{int64(i % 3), int64(i), 42}
	}
	seed(dict)
	empty2, err := e.AppendFlat(nil, rel.Rows{Arity: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty2)
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := Decode(data); err == nil {
			checkStable(t, b)
		}
		// Re-wrap: treat the bytes after the header (or the whole input) as a
		// payload and give it a consistent header so decodeColumn runs.
		payload := data
		if len(payload) >= HeaderSize {
			payload = payload[HeaderSize:]
		}
		if len(payload) > MaxPayload {
			return
		}
		for _, shape := range [][2]uint32{{0, 0}, {0, 2}, {1, 1}, {3, 2}, {1 << 10, 4}} {
			hdr := make([]byte, HeaderSize, HeaderSize+len(payload))
			copy(hdr, Magic)
			hdr[4] = Version
			binary.LittleEndian.PutUint16(hdr[6:], uint16(shape[1]))
			binary.LittleEndian.PutUint32(hdr[8:], shape[0])
			binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
			if b, err := Decode(append(hdr, payload...)); err == nil {
				checkStable(t, b)
			}
		}
	})
}

// checkStable re-encodes an accepted batch and verifies the round trip is
// value-identical.
func checkStable(t *testing.T, b rel.Rows) {
	t.Helper()
	var e Encoder
	data, err := e.AppendFlat(nil, b)
	if err != nil {
		t.Fatalf("re-encode of accepted batch failed: %v", err)
	}
	again, err := Decode(data)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	if again.N != b.N || again.Arity != b.Arity {
		t.Fatalf("shape drift: %dx%d -> %dx%d", b.N, b.Arity, again.N, again.Arity)
	}
	for i := 0; i < b.N; i++ {
		if !again.Row(i).Equal(b.Row(i)) {
			t.Fatalf("row %d drift: %v -> %v", i, b.Row(i), again.Row(i))
		}
	}
}
