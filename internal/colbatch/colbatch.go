package colbatch

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"parajoin/internal/rel"
)

// Format constants. The header is validated in full before any
// payload-proportional allocation happens, and the checksum before any
// column is decoded.
const (
	// Magic opens every batch.
	Magic = "PJCB"
	// Version is the format revision this package reads and writes.
	Version = 1
	// HeaderSize is the fixed batch header length in bytes.
	HeaderSize = 20
	// MaxRows caps the rows of a single batch. Larger row sets travel as a
	// stream of batches (AppendRowsStream), which bounds how much a decoder
	// allocates before each chunk's checksum has been verified.
	MaxRows = 1 << 20
	// MaxCols caps a batch's column count.
	MaxCols = 1 << 14
	// MaxPayload caps a batch's payload length.
	MaxPayload = 1 << 30
	// maxDict is the largest per-column dictionary the encoder builds; a
	// column with more distinct values falls back to raw varints.
	maxDict = 4096
)

// Column encodings.
const (
	encConst byte = 0 // one varint, repeated for every row
	encRaw   byte = 1 // rows zigzag varints in row order
	encDict  byte = 2 // uvarint count, dictionary varints, row indexes
)

// zigzagLen is the encoded length of v as a zigzag varint.
func zigzagLen(v int64) int {
	u := uint64(v<<1) ^ uint64(v>>63)
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// Encoder turns row batches into encoded columnar batches. The zero value
// is ready to use; an Encoder amortizes its transpose and dictionary
// scratch across calls and is not safe for concurrent use.
type Encoder struct {
	cols     [][]int64
	colArena []int64
	dict     dictTable
	dictVals []int64
	idx      []uint32
}

// AppendTuples appends the encoded form of rows (all of one arity) to dst
// and returns the extended slice.
func (e *Encoder) AppendTuples(dst []byte, rows []rel.Tuple) ([]byte, error) {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	if err := e.transpose(len(rows), ncols, func(i int) []int64 { return rows[i] }); err != nil {
		return nil, err
	}
	return e.appendBatch(dst, len(rows), ncols)
}

// AppendRows is AppendTuples for plain [][]int64 rows (the wire layer's row
// representation).
func (e *Encoder) AppendRows(dst []byte, rows [][]int64) ([]byte, error) {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	if err := e.transpose(len(rows), ncols, func(i int) []int64 { return rows[i] }); err != nil {
		return nil, err
	}
	return e.appendBatch(dst, len(rows), ncols)
}

// AppendFlat is AppendTuples for a block of flat rows — the exchange and
// spill form. It produces the same bytes AppendTuples does for the same
// rows.
func (e *Encoder) AppendFlat(dst []byte, rows rel.Rows) ([]byte, error) {
	if err := e.setup(rows.N, rows.Arity); err != nil {
		return nil, err
	}
	w := rows.Arity
	for j, col := range e.cols {
		for i := range col {
			col[i] = rows.Data[i*w+j]
		}
	}
	return e.appendBatch(dst, rows.N, w)
}

// setup checks a batch's shape against the limits and points e.cols at
// nrows-long column slices of the reused arena.
func (e *Encoder) setup(nrows, ncols int) error {
	if nrows > MaxRows {
		return fmt.Errorf("colbatch: batch of %d rows exceeds limit %d", nrows, MaxRows)
	}
	if ncols > MaxCols {
		return fmt.Errorf("colbatch: batch of %d columns exceeds limit %d", ncols, MaxCols)
	}
	if cap(e.colArena) < nrows*ncols {
		e.colArena = make([]int64, nrows*ncols)
	}
	if cap(e.cols) < ncols {
		e.cols = make([][]int64, ncols)
	}
	e.cols = e.cols[:ncols]
	for j := range e.cols {
		e.cols[j] = e.colArena[j*nrows : (j+1)*nrows]
	}
	return nil
}

// transpose fills e.cols with the batch's values column-major.
func (e *Encoder) transpose(nrows, ncols int, row func(int) []int64) error {
	if err := e.setup(nrows, ncols); err != nil {
		return err
	}
	for i := 0; i < nrows; i++ {
		r := row(i)
		if len(r) != ncols {
			return fmt.Errorf("colbatch: row %d has arity %d, batch has %d", i, len(r), ncols)
		}
		for j, v := range r {
			e.cols[j][i] = v
		}
	}
	return nil
}

// appendBatch encodes e.cols (nrows values each) after dst.
func (e *Encoder) appendBatch(dst []byte, nrows, ncols int) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	payloadStart := len(dst)
	for j := 0; j < ncols; j++ {
		dst = e.appendColumn(dst, e.cols[j])
	}
	payload := dst[payloadStart:]
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("colbatch: payload of %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	hdr := dst[start:payloadStart]
	copy(hdr, Magic)
	hdr[4] = Version
	hdr[5] = 0
	binary.LittleEndian.PutUint16(hdr[6:], uint16(ncols))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(nrows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
	counters.batchesEncoded.Add(1)
	counters.bytesEncoded.Add(int64(len(dst) - start))
	counters.bytesRaw.Add(8 * int64(nrows) * int64(ncols))
	return dst, nil
}

// appendColumn picks the smallest of the three encodings for col and
// appends it.
func (e *Encoder) appendColumn(dst []byte, col []int64) []byte {
	if len(col) == 0 {
		return append(dst, encRaw)
	}
	// One scan builds the dictionary (first-appearance order, abandoned
	// past maxDict or half the rows — beyond that raw can't lose by much)
	// and the exact encoded sizes of every alternative.
	e.dictVals = e.dictVals[:0]
	if cap(e.idx) < len(col) {
		e.idx = make([]uint32, len(col))
	}
	e.idx = e.idx[:len(col)]
	dictLimit := maxDict
	if half := len(col) / 2; half < dictLimit {
		dictLimit = half + 1
	}
	e.dict.reset(dictLimit)
	rawSize, idxSize, dictOK := 0, 0, true
	for i, v := range col {
		rawSize += zigzagLen(v)
		if !dictOK {
			continue
		}
		s := e.dict.lookup(v)
		if s.gen != e.dict.gen {
			if len(e.dictVals) >= dictLimit {
				dictOK = false
				continue
			}
			*s = dictSlot{key: v, code: uint32(len(e.dictVals)), gen: e.dict.gen}
			e.dictVals = append(e.dictVals, v)
		}
		e.idx[i] = s.code
		idxSize += uvarintLen(uint64(s.code))
	}
	if dictOK && len(e.dictVals) == 1 {
		counters.valuesConst.Add(int64(len(col)))
		dst = append(dst, encConst)
		return binary.AppendVarint(dst, col[0])
	}
	if dictOK {
		dictSize := uvarintLen(uint64(len(e.dictVals))) + idxSize
		for _, v := range e.dictVals {
			dictSize += zigzagLen(v)
		}
		if dictSize < rawSize {
			counters.valuesDict.Add(int64(len(col)))
			dst = append(dst, encDict)
			dst = binary.AppendUvarint(dst, uint64(len(e.dictVals)))
			for _, v := range e.dictVals {
				dst = binary.AppendVarint(dst, v)
			}
			for _, k := range e.idx {
				dst = binary.AppendUvarint(dst, uint64(k))
			}
			return dst
		}
	}
	counters.valuesRaw.Add(int64(len(col)))
	dst = append(dst, encRaw)
	for _, v := range col {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// dictTable maps a column's values to their dictionary codes by open
// addressing with linear probing. A slot is live only while its stamp
// equals the table's generation, so emptying the table between columns is
// one counter bump rather than a clear.
type dictTable struct {
	slots []dictSlot
	mask  uint64
	shift uint
	gen   uint32
}

type dictSlot struct {
	key  int64
	code uint32
	gen  uint32
}

// reset empties the table and sizes it to the next power of two at or
// above 2n, so n entries leave at least half the slots free.
func (d *dictTable) reset(n int) {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	size := 1 << bits
	if len(d.slots) < size {
		d.slots = make([]dictSlot, size)
	}
	if d.gen++; d.gen == 0 {
		// The stamp wrapped: stale slots could read as live.
		clear(d.slots)
		d.gen = 1
	}
	d.mask = uint64(size - 1)
	d.shift = 64 - bits
}

// lookup returns v's slot, or the free slot where v belongs.
func (d *dictTable) lookup(v int64) *dictSlot {
	i := (uint64(v) * 0x9e3779b97f4a7c15) >> d.shift
	for {
		s := &d.slots[i]
		if s.gen != d.gen || s.key == v {
			return s
		}
		i = (i + 1) & d.mask
	}
}

// Decode decodes data, which must hold exactly one batch, into freshly
// allocated rows.
func Decode(data []byte) (rel.Rows, error) {
	rows, n, err := DecodeInto(nil, data)
	if err != nil {
		return rel.Rows{}, err
	}
	if n != len(data) {
		return rel.Rows{}, fmt.Errorf("colbatch: %d trailing bytes after batch", len(data)-n)
	}
	return rows, nil
}

// DecodeInto decodes the batch at the head of data row-major into dst's
// storage, allocating a larger array only when dst's capacity is short,
// and returns the rows with the number of bytes the batch occupied — the
// stream-reading form. The rows alias dst when it was large enough. Every
// limit and the checksum are verified before any value is written.
func DecodeInto(dst []int64, data []byte) (rel.Rows, int, error) {
	if len(data) < HeaderSize {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: truncated header (%d of %d bytes)", len(data), HeaderSize)
	}
	if string(data[:4]) != Magic {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: bad magic %q", data[:4])
	}
	if data[4] != Version {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: unsupported version %d (want %d)", data[4], Version)
	}
	if data[5] != 0 {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: unknown flags %#x", data[5])
	}
	ncols := int(binary.LittleEndian.Uint16(data[6:]))
	nrows := int(binary.LittleEndian.Uint32(data[8:]))
	plen := int(binary.LittleEndian.Uint32(data[12:]))
	sum := binary.LittleEndian.Uint32(data[16:])
	if ncols > MaxCols {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: %d columns exceeds limit %d", ncols, MaxCols)
	}
	if nrows > MaxRows {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: %d rows exceeds limit %d", nrows, MaxRows)
	}
	if plen > MaxPayload {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: payload of %d bytes exceeds limit %d", plen, MaxPayload)
	}
	if len(data) < HeaderSize+plen {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: truncated payload (%d of %d bytes)", len(data)-HeaderSize, plen)
	}
	payload := data[HeaderSize : HeaderSize+plen]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: checksum mismatch: header %#x, payload %#x", sum, got)
	}
	if cap(dst) < nrows*ncols {
		dst = make([]int64, nrows*ncols)
	}
	dst = dst[:nrows*ncols]
	for j := 0; j < ncols; j++ {
		n, err := decodeColumn(dst, j, ncols, nrows, payload)
		if err != nil {
			return rel.Rows{}, 0, fmt.Errorf("colbatch: column %d: %w", j, err)
		}
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return rel.Rows{}, 0, fmt.Errorf("colbatch: %d undecoded payload bytes", len(payload))
	}
	counters.batchesDecoded.Add(1)
	counters.bytesDecoded.Add(int64(HeaderSize + plen))
	return rel.Rows{Arity: ncols, N: nrows, Data: dst}, HeaderSize + plen, nil
}

// decodeColumn decodes one column block from the head of payload into
// out[off], out[off+stride], ... (nrows values) and returns the bytes
// consumed. out is never resliced at off, so an empty batch of any width
// decodes without touching it.
func decodeColumn(out []int64, off, stride, nrows int, payload []byte) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("missing encoding byte")
	}
	enc := payload[0]
	p := payload[1:]
	used := 1
	readVarint := func() (int64, error) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, fmt.Errorf("bad varint at payload offset %d", used)
		}
		p = p[n:]
		used += n
		return v, nil
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("bad uvarint at payload offset %d", used)
		}
		p = p[n:]
		used += n
		return v, nil
	}
	switch enc {
	case encConst:
		if nrows == 0 {
			return 0, fmt.Errorf("const encoding for empty column")
		}
		v, err := readVarint()
		if err != nil {
			return 0, err
		}
		for i := 0; i < nrows; i++ {
			out[off+i*stride] = v
		}
	case encRaw:
		for i := 0; i < nrows; i++ {
			v, err := readVarint()
			if err != nil {
				return 0, err
			}
			out[off+i*stride] = v
		}
	case encDict:
		d, err := readUvarint()
		if err != nil {
			return 0, err
		}
		if d == 0 || d > uint64(nrows) || d > maxDict {
			return 0, fmt.Errorf("dictionary of %d entries for %d rows", d, nrows)
		}
		// Small dictionaries, the common case, decode into stack storage.
		var small [256]int64
		var dict []int64
		if d <= uint64(len(small)) {
			dict = small[:d]
		} else {
			dict = make([]int64, d)
		}
		for i := range dict {
			if dict[i], err = readVarint(); err != nil {
				return 0, err
			}
		}
		for i := 0; i < nrows; i++ {
			k, err := readUvarint()
			if err != nil {
				return 0, err
			}
			if k >= d {
				return 0, fmt.Errorf("dictionary index %d out of %d entries", k, d)
			}
			out[off+i*stride] = dict[k]
		}
	default:
		return 0, fmt.Errorf("unknown column encoding %d", enc)
	}
	return used, nil
}

// streamChunkRows is the per-batch row cap AppendRowsStream chunks at:
// well under MaxRows, so stream readers allocate modest arenas per chunk.
const streamChunkRows = 1 << 16

// AppendRowsStream encodes rows as one or more concatenated batches of at
// most streamChunkRows rows each and appends them to dst. An empty row set
// encodes as a single empty batch, so a stream is never zero bytes.
func AppendRowsStream(dst []byte, rows [][]int64) ([]byte, error) {
	var e Encoder
	if len(rows) == 0 {
		return e.AppendRows(dst, nil)
	}
	var err error
	for len(rows) > 0 {
		n := len(rows)
		if n > streamChunkRows {
			n = streamChunkRows
		}
		if dst, err = e.AppendRows(dst, rows[:n]); err != nil {
			return nil, err
		}
		rows = rows[n:]
	}
	return dst, nil
}

// DecodeRowsStream decodes a concatenation of batches back into rows, one
// flat array per batch with the rows as views into it.
func DecodeRowsStream(data []byte) ([][]int64, error) {
	var rows [][]int64
	for len(data) > 0 {
		b, n, err := DecodeInto(nil, data)
		if err != nil {
			return nil, err
		}
		data = data[n:]
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
	}
	return rows, nil
}
