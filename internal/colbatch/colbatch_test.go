package colbatch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"parajoin/internal/rel"
)

func roundTrip(t *testing.T, rows []rel.Tuple) rel.Rows {
	t.Helper()
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b.N != len(rows) {
		t.Fatalf("rows: got %d, want %d", b.N, len(rows))
	}
	for i, want := range rows {
		if got := b.Row(i); !got.Equal(want) {
			t.Fatalf("row %d: got %v, want %v", i, got, want)
		}
	}
	// The flat encoder produces the same bytes, and decoding into a
	// large-enough array reuses it.
	flat, err := e.AppendFlat(nil, rel.FlatRows(b.Arity, rows))
	if err != nil {
		t.Fatalf("encode flat: %v", err)
	}
	if !bytes.Equal(flat, data) {
		t.Fatalf("AppendFlat bytes differ from AppendTuples")
	}
	buf := make([]int64, 0, len(b.Data)+1)
	again, _, err := DecodeInto(buf, data)
	if err != nil {
		t.Fatalf("decode into: %v", err)
	}
	if len(again.Data) > 0 && &again.Data[0] != &buf[:1][0] {
		t.Fatalf("DecodeInto allocated despite a large-enough array")
	}
	return b
}

func TestRoundTripShapes(t *testing.T) {
	cases := map[string][]rel.Tuple{
		"empty":      nil,
		"single":     {{42}},
		"constant":   {{7, -1}, {7, -1}, {7, -1}},
		"negatives":  {{-1, math.MinInt64}, {-128, math.MaxInt64}, {0, 1}},
		"wide":       {{1, 2, 3, 4, 5, 6, 7, 8}},
		"dictionary": {{100, 5}, {200, 5}, {100, 6}, {200, 5}, {100, 6}, {100, 5}},
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, rows) })
	}
}

// TestEmptyWideBatch round-trips a zero-row block of several columns: the
// header says ncols > 1 but there is no value to place, and both decoders
// must accept it without indexing past the empty array.
func TestEmptyWideBatch(t *testing.T) {
	for _, arity := range []int{2, 5} {
		var e Encoder
		data, err := e.AppendFlat(nil, rel.Rows{Arity: arity})
		if err != nil {
			t.Fatalf("arity %d: encode: %v", arity, err)
		}
		b, err := Decode(data)
		if err != nil {
			t.Fatalf("arity %d: decode: %v", arity, err)
		}
		if b.Arity != arity || b.N != 0 || len(b.Data) != 0 {
			t.Fatalf("arity %d: decoded %d rows of arity %d, %d values", arity, b.N, b.Arity, len(b.Data))
		}
		into, n, err := DecodeInto(make([]int64, 0, 4), data)
		if err != nil {
			t.Fatalf("arity %d: decode into: %v", arity, err)
		}
		if n != len(data) || into.Arity != arity || into.N != 0 {
			t.Fatalf("arity %d: DecodeInto gave %d rows of arity %d after %d of %d bytes", arity, into.N, into.Arity, n, len(data))
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nrows := rng.Intn(200)
		ncols := 1 + rng.Intn(5)
		rows := make([]rel.Tuple, nrows)
		for i := range rows {
			rows[i] = make(rel.Tuple, ncols)
			for j := range rows[i] {
				switch rng.Intn(3) {
				case 0: // dictionary-friendly: few distinct values
					rows[i][j] = int64(rng.Intn(4))
				case 1: // small ids
					rows[i][j] = int64(rng.Intn(100000))
				default: // full-range values
					rows[i][j] = int64(rng.Uint64())
				}
			}
		}
		roundTrip(t, rows)
	}
}

// TestDictionaryCompresses pins the point of the format: a low-cardinality
// string-code column encodes far below 8 bytes/value.
func TestDictionaryCompresses(t *testing.T) {
	rows := make([]rel.Tuple, 1024)
	for i := range rows {
		rows[i] = rel.Tuple{int64(1_000_000 + i%3), int64(i % 7)}
	}
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	raw := 8 * len(rows) * 2
	if len(data)*4 > raw {
		t.Fatalf("dictionary batch is %d bytes; want < 1/4 of the flat %d", len(data), raw)
	}
}

// TestColumnVectors checks that every column decodes into its strided
// positions of the row-major block.
func TestColumnVectors(t *testing.T) {
	rows := []rel.Tuple{{1, 10}, {2, 20}, {3, 30}}
	b := roundTrip(t, rows)
	if b.Arity != 2 {
		t.Fatalf("cols: got %d", b.Arity)
	}
	wantCol1 := []int64{10, 20, 30}
	for i, want := range wantCol1 {
		if got := b.Data[i*b.Arity+1]; got != want {
			t.Fatalf("col 1 row %d: got %d, want %d", i, got, want)
		}
	}
}

// TestTupleArenaIsolation: appending to one decoded row view must not
// clobber its neighbor (capacity clamps).
func TestTupleArenaIsolation(t *testing.T) {
	b := roundTrip(t, []rel.Tuple{{1, 2}, {3, 4}})
	_ = append(b.Row(0), 99)
	if got := b.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("arena bleed: row 1 became %v", got)
	}
}

func TestRaggedRowsRejected(t *testing.T) {
	var e Encoder
	if _, err := e.AppendTuples(nil, []rel.Tuple{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch encoded without error")
	}
}

func TestEncoderReuse(t *testing.T) {
	var e Encoder
	a, err := e.AppendTuples(nil, []rel.Tuple{{1, 1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Second use with different shape must not inherit scratch state.
	data, err := e.AppendTuples(a, []rel.Tuple{{9, 8, 7}})
	if err != nil {
		t.Fatal(err)
	}
	b1, n, err := DecodeInto(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Decode(data[n:])
	if err != nil {
		t.Fatal(err)
	}
	if b1.N != 2 || b2.N != 1 || b2.Arity != 3 {
		t.Fatalf("stream decode: %d/%d rows, %d cols", b1.N, b2.N, b2.Arity)
	}
	if got := b2.Row(0); !got.Equal(rel.Tuple{9, 8, 7}) {
		t.Fatalf("second batch decoded to %v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var e Encoder
	data, err := e.AppendTuples(nil, []rel.Tuple{{1, 2}, {3, 4}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte)) {
		bad := append([]byte(nil), data...)
		mutate(bad)
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	check("magic", func(b []byte) { b[0] = 'X' })
	check("version", func(b []byte) { b[4] = 99 })
	check("flags", func(b []byte) { b[5] = 1 })
	check("payload flip", func(b []byte) { b[HeaderSize] ^= 0xff })
	check("checksum flip", func(b []byte) { b[16] ^= 0xff })
	check("truncated", func(b []byte) { b[12]++ }) // claims one byte more than present
	if _, err := Decode(data[:HeaderSize-1]); err == nil {
		t.Error("truncated header decoded")
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted by Decode")
	}
}

// TestDecodeBoundsHostileHeader: a header claiming huge rows/cols must be
// rejected before any proportional allocation.
func TestDecodeBoundsHostileHeader(t *testing.T) {
	hdr := make([]byte, HeaderSize)
	copy(hdr, Magic)
	hdr[4] = Version
	binary.LittleEndian.PutUint16(hdr[6:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(MaxRows+1))
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(nil))
	if _, err := Decode(hdr); err == nil {
		t.Fatal("oversized row claim accepted")
	}
	// A valid-looking header with a dict column whose index escapes the
	// dictionary must fail cleanly.
	payload := []byte{encDict}
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendVarint(payload, 5)
	payload = binary.AppendUvarint(payload, 7) // index 7 of 1
	bad := make([]byte, HeaderSize)
	copy(bad, Magic)
	bad[4] = Version
	binary.LittleEndian.PutUint16(bad[6:], 1)
	binary.LittleEndian.PutUint32(bad[8:], 1)
	binary.LittleEndian.PutUint32(bad[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(bad[16:], crc32.ChecksumIEEE(payload))
	if _, err := Decode(append(bad, payload...)); err == nil {
		t.Fatal("out-of-range dictionary index accepted")
	}
}

func TestRowsStream(t *testing.T) {
	rows := make([][]int64, 3*streamChunkRows/2)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 5)}
	}
	data, err := AppendRowsStream(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRowsStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows: got %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(int64Bytes(got[i]), int64Bytes(rows[i])) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
	// Empty streams are one empty batch, not zero bytes.
	empty, err := AppendRowsStream(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) == 0 {
		t.Fatal("empty stream encoded to zero bytes")
	}
	if got, err := DecodeRowsStream(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty stream decoded to %v, %v", got, err)
	}
}

func int64Bytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

func TestStatsMove(t *testing.T) {
	before := ReadStats()
	var e Encoder
	data, err := e.AppendTuples(nil, []rel.Tuple{{1, 1}, {1, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if after.BatchesEncoded <= before.BatchesEncoded || after.BatchesDecoded <= before.BatchesDecoded {
		t.Fatalf("batch counters did not move: %+v -> %+v", before, after)
	}
	if after.BytesRaw-before.BytesRaw != 8*3*2 {
		t.Fatalf("raw bytes delta: %d", after.BytesRaw-before.BytesRaw)
	}
}

func BenchmarkEncodeTuples(b *testing.B) {
	rows := make([]rel.Tuple, 1024)
	for i := range rows {
		rows[i] = rel.Tuple{int64(i), int64(i % 16), 123456}
	}
	var e Encoder
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = e.AppendTuples(buf[:0], rows); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 1024 * 3)
}

// BenchmarkDecodeInto measures decode ns/tuple into one reused array — the
// exchange receiver's cost.
func BenchmarkDecodeInto(b *testing.B) {
	rows := make([]rel.Tuple, 1024)
	for i := range rows {
		rows[i] = rel.Tuple{int64(i), int64(i % 16), 123456}
	}
	var e Encoder
	data, err := e.AppendTuples(nil, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf []int64
	for i := 0; i < b.N; i++ {
		batch, _, err := DecodeInto(buf, data)
		if err != nil {
			b.Fatal(err)
		}
		if batch.N != 1024 {
			b.Fatal("short decode")
		}
		buf = batch.Data
	}
	b.SetBytes(8 * 1024 * 3)
}
