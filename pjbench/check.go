package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// setDigest summarizes a multiset of rows independently of their order:
// the row count plus the wrapping sum of a strong per-row hash. Two answers
// with equal set digests hold the same sorted rows (barring a 64-bit
// collision), which is the comparison across configurations whose row order
// legitimately differs.
type setDigest struct {
	rows int
	sum  uint64
}

func (d *setDigest) add(row []int64) {
	d.rows++
	d.sum += rowHash(row)
}

func (d setDigest) String() string { return fmt.Sprintf("%d:%016x", d.rows, d.sum) }

func digestRows(rows [][]int64) setDigest {
	var d setDigest
	for _, r := range rows {
		d.add(r)
	}
	return d
}

// rowHash mixes every value of a row (and its arity) through splitmix64.
func rowHash(row []int64) uint64 {
	h := mix64(uint64(len(row)) + 0x9e3779b97f4a7c15)
	for _, v := range row {
		h = mix64(h ^ uint64(v))
	}
	return h
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// orderedDigest hashes rows in the order given: equal digests mean
// byte-identical answers, row order included.
func orderedDigest(rows [][]int64) string {
	h := sha256.New()
	writeRows(h, rows)
	return fmt.Sprintf("%d:%x", len(rows), h.Sum(nil)[:12])
}

func writeRows(h hash.Hash, rows [][]int64) {
	var buf [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(r)))
		h.Write(buf[:])
		for _, v := range r {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
}
