// Package wire is the network protocol between nfr-server and its
// clients: a stream of length-prefixed, checksummed binary frames over
// any ordered byte transport (TCP in production, net.Pipe in tests).
//
// Frame layout (all integers big-endian):
//
//	u32 length   — bytes after this field: 1 (type) + 4 (crc) + payload
//	u8  type     — frame type (T* constants)
//	u32 crc32c   — CRC-32/Castagnoli over type byte ++ payload
//	payload      — type-specific bytes, at most MaxPayload
//
// The codec is deliberately defensive: a reader facing a truncated,
// oversized, or checksum-corrupted frame gets a typed error and never
// panics or over-allocates — the server closes the connection, the
// file stays untouched. FuzzWireFrame holds that line.
//
// See docs/server.md for the protocol reference: which frame types a
// client may send, what the server answers, and the connection
// lifecycle around them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/storage"
)

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set; an endpoint receiving a frame
// from the wrong half treats the stream as broken.
const (
	// TQuery carries one NF² query-language statement (UTF-8 text) to
	// execute on the connection's session.
	TQuery byte = 0x01
	// TStats requests server-wide statistics (empty payload).
	TStats byte = 0x02
	// TPing requests a TPong (empty payload).
	TPing byte = 0x03
	// TQuit announces a polite close; the server answers TBye and
	// closes after rolling back any open transaction.
	TQuit byte = 0x04

	// THello is the server's greeting: payload = [ProtoVersion].
	THello byte = 0x80
	// TMsg is a statement's status message (UTF-8 text).
	TMsg byte = 0x81
	// TRows is a statement's relation result, encoded with
	// internal/encoding's WriteRelation format.
	TRows byte = 0x82
	// TErr is a failed statement or refused connection:
	// payload = [code] ++ UTF-8 message. The connection stays usable
	// after a statement error; a CodeBusy TErr right after dial means
	// the connection was refused.
	TErr byte = 0x83
	// TStatsReply carries a JSON-encoded ServerStats.
	TStatsReply byte = 0x84
	// TPong answers TPing (empty payload).
	TPong byte = 0x85
	// TBye is the server's goodbye (payload = optional reason); sent on
	// TQuit, idle timeout, and graceful drain, right before close.
	TBye byte = 0x86
)

// ProtoVersion is the wire-protocol version carried in THello. A
// client refuses to speak to a server announcing a different version.
const ProtoVersion = 1

// MaxPayload bounds a frame's payload so a corrupted or hostile length
// prefix cannot make the reader allocate unbounded memory.
const MaxPayload = 16 << 20

// frameOverhead is the length-field value of an empty-payload frame:
// type byte + crc32.
const frameOverhead = 5

// Typed codec errors. ErrFrame wraps every malformed-frame condition;
// the finer sentinels say which one.
var (
	// ErrFrame is the root of the malformed-frame error family.
	ErrFrame = errors.New("wire: malformed frame")
	// ErrTooLarge marks a length prefix exceeding MaxPayload.
	ErrTooLarge = fmt.Errorf("frame too large: %w", ErrFrame)
	// ErrChecksum marks a frame whose CRC32-C does not match.
	ErrChecksum = fmt.Errorf("frame checksum mismatch: %w", ErrFrame)
	// ErrTruncated marks a stream ending inside a frame.
	ErrTruncated = fmt.Errorf("truncated frame: %w", ErrFrame)
)

// castagnoli is the CRC-32/Castagnoli table (same polynomial as the
// storage layer's page checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Error codes carried by TErr frames: the engine's public error
// taxonomy, flattened to one byte so a client can rebuild errors.Is-able
// errors on its side of the wire.
const (
	CodeGeneric      byte = 0  // anything without a finer class
	CodeNotFound     byte = 1  // engine.ErrNotFound
	CodeExists       byte = 2  // engine.ErrExists
	CodeTypeMismatch byte = 3  // engine.ErrTypeMismatch
	CodeTxDone       byte = 4  // engine.ErrTxDone
	CodeTxConflict   byte = 5  // engine.ErrTxConflict (roll back and retry)
	CodeReadOnly     byte = 6  // engine.ErrReadOnly
	CodeClosed       byte = 7  // engine.ErrClosed
	CodeCorrupt      byte = 8  // engine.ErrCorrupt
	CodeMispaired    byte = 9  // engine.ErrMispaired
	CodeParse        byte = 10 // statement failed to parse
	CodeBusy         byte = 11 // connection refused: at MaxConns
	CodeShutdown     byte = 12 // server is draining; connection closing
)

// ServerStats is the TStatsReply payload (JSON): the storage counters
// the ROADMAP asks the metrics endpoint to expose, plus the server's
// own connection accounting.
type ServerStats struct {
	// Conns is the number of currently served connections; MaxConns the
	// configured limit (0 = unlimited).
	Conns    int `json:"conns"`
	MaxConns int `json:"max_conns"`
	// Accepted and Refused count connections since the server started;
	// Statements counts executed statements across all connections.
	Accepted   int64 `json:"accepted"`
	Refused    int64 `json:"refused"`
	Statements int64 `json:"statements"`
	// LatchWaits is engine.Database.LatchWaits: statement-latch
	// acquisitions that blocked on a concurrent transaction.
	LatchWaits int64 `json:"latch_waits"`
	// Pool and WAL are the storage layer's counters.
	Pool storage.PoolStats `json:"pool"`
	WAL  storage.WALStats  `json:"wal"`
	// Pipelines reports, per relation, how the write pipeline batched
	// concurrent autocommit statements and how contended the shard
	// latches were (engine.Database.PipelineStats).
	Pipelines map[string]RelPipeline `json:"pipelines,omitempty"`
	// Indexes reports, per relation, the durable index footprint by
	// structure (engine.Database.IndexPageStats).
	Indexes map[string]RelIndexPages `json:"indexes,omitempty"`
}

// RelPipeline is one relation's write-pipeline and shard-contention
// accounting inside ServerStats — a wire-local mirror of
// engine.RelPipelineStats so the protocol package does not depend on
// the engine.
type RelPipeline struct {
	Shards     int   `json:"shards"`      // heap chains the relation is partitioned across
	Batches    int64 `json:"batches"`     // pipeline batches applied (each ≤ 1 fsync)
	Ops        int64 `json:"ops"`         // autocommit statements that rode a pipeline batch
	MaxBatch   int64 `json:"max_batch"`   // largest batch applied on any shard
	QueuePeak  int64 `json:"queue_peak"`  // high-water pipeline queue depth on any shard
	LatchWaits int64 `json:"latch_waits"` // contended shard-latch acquisitions
}

// RelIndexPages is one relation's index page counts inside ServerStats
// — a wire-local mirror of store.IndexPageCounts so the protocol
// package does not depend on the storage layer's internals.
type RelIndexPages struct {
	BTreeInner int `json:"btree_inner"` // B+tree meta + inner pages
	BTreeLeaf  int `json:"btree_leaf"`  // B+tree leaf pages
}

// Append appends one encoded frame to dst and returns the extended
// slice. It panics if payload exceeds MaxPayload — senders own their
// payload sizes; only the receiving side treats violations as data.
func Append(dst []byte, typ byte, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("wire: payload %d exceeds MaxPayload", len(payload)))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameOverhead+len(payload)))
	dst = append(dst, typ)
	crc := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, payload)
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// Write encodes one frame and writes it to w as a single Write call
// (one frame = one syscall on a net.Conn, keeping frame boundaries
// aligned with packet flushes).
func Write(w io.Writer, typ byte, payload []byte) error {
	buf := Append(make([]byte, 0, 4+frameOverhead+len(payload)), typ, payload)
	_, err := w.Write(buf)
	return err
}

// Read reads exactly one frame from r, verifying its length bounds and
// checksum. The returned payload is a fresh slice owned by the caller.
// A clean end-of-stream before the first length byte returns io.EOF;
// a stream ending anywhere inside a frame returns ErrTruncated.
func Read(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w (length: %v)", ErrTruncated, err)
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length < frameOverhead {
		return 0, nil, fmt.Errorf("length %d < %d: %w", length, frameOverhead, ErrFrame)
	}
	if length > frameOverhead+MaxPayload {
		return 0, nil, fmt.Errorf("length %d: %w", length, ErrTooLarge)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w (body: %v)", ErrTruncated, err)
	}
	typ = body[0]
	wantCRC := binary.BigEndian.Uint32(body[1:5])
	payload = body[5:]
	crc := crc32.Update(crc32.Checksum(body[:1], castagnoli), castagnoli, payload)
	if crc != wantCRC {
		return 0, nil, fmt.Errorf("type 0x%02x: %w", typ, ErrChecksum)
	}
	return typ, payload, nil
}

// Decode decodes the first frame of b, returning how many bytes it
// consumed. It reports the same errors as Read; a b too short to hold
// the full frame returns ErrTruncated (a streaming caller would read
// more and retry).
func Decode(b []byte) (typ byte, payload []byte, n int, err error) {
	if len(b) < 4 {
		return 0, nil, 0, ErrTruncated
	}
	length := binary.BigEndian.Uint32(b[:4])
	if length < frameOverhead {
		return 0, nil, 0, fmt.Errorf("length %d < %d: %w", length, frameOverhead, ErrFrame)
	}
	if length > frameOverhead+MaxPayload {
		return 0, nil, 0, fmt.Errorf("length %d: %w", length, ErrTooLarge)
	}
	if uint32(len(b)-4) < length {
		return 0, nil, 0, ErrTruncated
	}
	body := b[4 : 4+length]
	typ = body[0]
	wantCRC := binary.BigEndian.Uint32(body[1:5])
	payload = append([]byte(nil), body[5:]...)
	crc := crc32.Update(crc32.Checksum(body[:1], castagnoli), castagnoli, payload)
	if crc != wantCRC {
		return 0, nil, 0, fmt.Errorf("type 0x%02x: %w", typ, ErrChecksum)
	}
	return typ, payload, 4 + int(length), nil
}

// WriteErr writes a TErr frame built from code and message.
func WriteErr(w io.Writer, code byte, msg string) error {
	p := make([]byte, 0, 1+len(msg))
	p = append(p, code)
	p = append(p, msg...)
	return Write(w, TErr, p)
}

// SplitErr decodes a TErr payload into its code and message. An empty
// payload (malformed, but survivable) decodes as CodeGeneric.
func SplitErr(payload []byte) (code byte, msg string) {
	if len(payload) == 0 {
		return CodeGeneric, "unspecified server error"
	}
	return payload[0], string(payload[1:])
}
