// Inter-node framing helpers shared by the gossip transport and the
// tuple codec. Where wire.go is the client-facing DDB1 codec, this file
// is the generic layer under the node-to-node DDN1 codec
// (internal/transport): a connection preamble, length-delimited frames,
// the append primitives bodies are built from (uvarint lengths, zig-zag
// signed ints, little-endian float bits), and Cursor, the one decoder
// every DDN1 body and every tuple inside one is read with.
//
// A DDN1 connection starts with the 4-byte magic "DDN1" followed by the
// sender's node ID as a uvarint — the sender identifies itself once per
// connection instead of once per envelope. Every subsequent frame is a
// big-endian uint32 body length followed by the body; the body's first
// byte is a message tag (internal/transport's registry). Because the
// length alone delimits the frame, a reader that does not understand a
// tag can skip the frame and keep the connection — the rule that lets
// mixed-version clusters survive new message types.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// NodeMagic is the inter-node connection preamble (DataDroplets Node
// protocol, revision 1). Distinct from the client Magic so a client
// dialing a gossip port (or vice versa) fails fast.
const NodeMagic = "DDN1"

// MaxNodeFrame bounds one inter-node frame body. Repair pushes batch
// tuples, so frames are much larger than client frames; anything above
// this is a framing error and the connection must be dropped.
const MaxNodeFrame = 64 << 20

// Inter-node framing errors.
var (
	ErrNodeFrameTooBig = fmt.Errorf("wire: node frame larger than %d bytes", MaxNodeFrame)
	// ErrTruncated reports a body shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated body")
	// ErrTooLong reports a length-prefixed field beyond its limit.
	ErrTooLong = errors.New("wire: length-prefixed field too long")
)

// WriteNodePreamble sends the DDN1 magic and the sender's identity.
func WriteNodePreamble(w io.Writer, self uint64) error {
	var buf [len(NodeMagic) + binary.MaxVarintLen64]byte
	n := copy(buf[:], NodeMagic)
	n += binary.PutUvarint(buf[n:], self)
	_, err := w.Write(buf[:n])
	return err
}

// ReadNodePreamble consumes the DDN1 magic and returns the sender's ID.
func ReadNodePreamble(r *bufio.Reader) (uint64, error) {
	var magic [len(NodeMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, err
	}
	if string(magic[:]) != NodeMagic {
		return 0, ErrBadMagic
	}
	from, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, unexpectedEOF(err)
	}
	return from, nil
}

// WriteNodeFrame emits one length-delimited frame. The caller batches
// frames through the bufio writer and flushes on queue drain, so one
// syscall can carry many envelopes.
func WriteNodeFrame(w *bufio.Writer, body []byte) error {
	if len(body) > MaxNodeFrame {
		return ErrNodeFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadNodeFrame reads one frame body, reusing buf when it is large
// enough. io.EOF is returned untouched when the stream ends cleanly
// between frames; a frame cut short mid-body is io.ErrUnexpectedEOF.
func ReadNodeFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, unexpectedEOF(err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxNodeFrame {
		return nil, ErrNodeFrameTooBig
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

// Body append primitives: what message and tuple encoders compose
// bodies from, and what Cursor reads back.

// AppendString appends a uvarint length followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendVarint appends a zig-zag encoded signed integer.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendF64 appends a float64 as its little-endian IEEE-754 bits.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// Cursor is the one decoder for binary bodies: every DDN1 message and
// every tuple is read through it. Its first failure sticks: afterwards
// every accessor returns its zero value without touching the body, so a
// decoder is straight-line code that checks Err once at the end. A
// cursor never panics on malformed input, and a count from the body
// sizes nothing before Fits has checked it against the bytes left.
type Cursor struct {
	buf []byte
	pos int
	err error
}

// Reset points the cursor at a new body and clears its error.
func (c *Cursor) Reset(b []byte) { *c = Cursor{buf: b} }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Fail records err unless the cursor has already failed.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Len reports the unread bytes remaining.
func (c *Cursor) Len() int { return len(c.buf) - c.pos }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil || c.pos >= len(c.buf) {
		c.Fail(ErrTruncated)
		return 0
	}
	b := c.buf[c.pos]
	c.pos++
	return b
}

// Bool reads one byte; any nonzero value is true.
func (c *Cursor) Bool() bool { return c.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.err = ErrTruncated
		return 0
	}
	c.pos += n
	return v
}

// Int reads a zig-zag encoded signed varint.
func (c *Cursor) Int() int {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.pos:])
	if n <= 0 {
		c.err = ErrTruncated
		return 0
	}
	c.pos += n
	return int(v)
}

// Bytes returns n bytes borrowed from the body (valid until the body
// buffer is recycled; copy to retain).
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil || n < 0 || n > c.Len() {
		c.Fail(ErrTruncated)
		return nil
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b
}

// Str reads a uvarint-length-prefixed string of at most MaxKeyLen bytes
// (keys, attribute names, tags).
func (c *Cursor) Str() string {
	n := c.Uvarint()
	if n > MaxKeyLen {
		c.Fail(ErrTooLong)
		return ""
	}
	return string(c.Bytes(int(n)))
}

// F64 reads a little-endian float64.
func (c *Cursor) F64() float64 {
	if b := c.Bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Fits reports whether n more elements of at least minElemBytes each
// can be in the bytes left, and fails the cursor when they cannot: such
// a count is a malformed body however its elements would parse. The
// test divides because n is hostile — n*minElemBytes wraps.
func (c *Cursor) Fits(n uint64, minElemBytes int) bool {
	if n > uint64(c.Len()/minElemBytes) {
		c.Fail(ErrTruncated)
	}
	return c.err == nil
}

// MaxCountHint caps the capacity a checked count may reserve up front.
// Fits bounds a count by the bytes left, not by the memory its elements
// take once decoded: 64 MiB of one-byte elements is an honest count of
// 2^26 that would size a gigabyte of slice before a single element is
// read. Past the hint, growth is paid for by elements that actually
// parse.
const MaxCountHint = 64 << 10
