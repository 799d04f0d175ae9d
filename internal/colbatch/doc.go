// Package colbatch is parajoin's shared binary batch format: a versioned,
// checksummed, dictionary-encoded, column-major layout for tuple batches.
// One format serves all three payload paths — the TCP exchange transport's
// data frames, spill segment files, and the wire protocol's columnar result
// encoding — so bytes written by any of them can be read by the others and
// every path benefits from the same compression.
//
// # Layout
//
// A batch is a 20-byte header followed by a payload of consecutive column
// blocks:
//
//	offset size  field
//	0      4     magic "PJCB"
//	4      1     version (1)
//	5      1     flags (reserved, must be 0)
//	6      2     columns, little-endian uint16
//	8      4     rows, little-endian uint32
//	12     4     payload length in bytes, little-endian uint32
//	16     4     CRC-32 (IEEE) of the payload, little-endian uint32
//
// Each column block starts with one encoding byte:
//
//	const (0): one zigzag varint — every row holds that value
//	raw   (1): rows zigzag varints, the column's values in row order
//	dict  (2): uvarint distinct-count d, then d zigzag varints (the
//	           dictionary, in first-appearance order), then rows uvarint
//	           indexes into it
//
// The encoder picks, per column, whichever encoding is smallest for the
// actual data. Values are attribute values from internal/rel — already
// int64 codes, because rel.Dict interns every string at load time — so the
// dict encoding here is a second-level dictionary: it compresses columns
// whose (string or integer) values repeat within a batch, which is exactly
// the shape dictionary-encoded string workloads produce.
//
// # Reading
//
// DecodeInto validates the magic, version, checksum, and size limits
// before writing a value, then decodes the payload row-major into a flat
// rel.Rows block, reusing the caller's array when it is large enough. An
// exchange receiver that decodes every batch into one reused array
// therefore allocates nothing per batch; Decode is the allocating form.
// Encoder.AppendFlat encodes such a block, producing the same bytes as
// AppendTuples does for the same rows.
//
// Batches are capped at MaxRows rows; Append/Decode of larger payloads is
// an error. Larger row sets travel as a stream of concatenated batches
// (AppendRowsStream/DecodeRowsStream), which also bounds what a decoder
// allocates before validating each chunk.
package colbatch
