// Package wire defines the DataDroplets binary client protocol (DDB1):
// the framing, opcodes and status codes spoken between ddclient and the
// cmd/datadroplets server. The full specification — including the
// pipelining, backpressure and consistency semantics a client may rely
// on — lives in docs/PROTOCOL.md; this package is the codec both sides
// share, so an encode/decode round trip is the spec's executable half.
//
// Frames are length-delimited: a fixed header carries the opcode (or
// status) and the byte lengths of the variable sections, so a reader
// can always consume exactly one frame even when it does not understand
// the opcode. All integers are big-endian.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic is the connection preamble: the client sends these four bytes
// first; the server verifies them before reading any frame, so protocol
// and version mismatches fail fast instead of desynchronising framing.
const Magic = "DDB1"

// Op identifies a request operation.
type Op uint8

// Request opcodes.
const (
	OpPut   Op = 1 // key + value  -> OK(version)
	OpGet   Op = 2 // key          -> VALUE(value) | NOT_FOUND
	OpDel   Op = 3 // key          -> OK(version)
	OpNEst  Op = 4 //              -> OK(float64 size estimate)
	OpLen   Op = 5 //              -> OK(uint64 local tuple count)
	OpStats Op = 6 //              -> OK(JSON server metrics)
	OpPing  Op = 7 //              -> OK(empty)
)

// Valid reports whether the opcode is known to this protocol version.
func (o Op) Valid() bool { return o >= OpPut && o <= OpPing }

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDel:
		return "DEL"
	case OpNEst:
		return "NEST"
	case OpLen:
		return "LEN"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status classifies a response.
type Status uint8

// Response status codes.
const (
	StatusOK       Status = 0 // op-specific payload (see opcodes above)
	StatusValue    Status = 1 // GET hit: payload is the value
	StatusNotFound Status = 2 // GET miss or tombstone
	StatusErr      Status = 3 // payload is a UTF-8 error message
	StatusTimeout  Status = 4 // per-op deadline expired server-side
	StatusBusy     Status = 5 // connection limit or shutdown drain
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusValue:
		return "VALUE"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusErr:
		return "ERR"
	case StatusTimeout:
		return "TIMEOUT"
	case StatusBusy:
		return "BUSY"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Frame size limits. Oversized lengths are a framing error: the
// connection cannot be resynchronised and must be closed.
const (
	MaxKeyLen   = 4 << 10 // 4 KiB keys
	MaxValueLen = 1 << 20 // 1 MiB values
	MaxPayload  = 4 << 20 // response payload ceiling (STATS JSON, values)
	VersionLen  = 16      // version payload: seq uint64 + writer uint64
)

// Codec errors. ErrBadMagic, ErrKeyTooLong, ErrValueTooLong and
// ErrPayloadTooLong are framing errors: after one of these the stream
// position is undefined and the connection must be dropped.
var (
	ErrBadMagic       = errors.New("wire: bad protocol magic")
	ErrKeyTooLong     = fmt.Errorf("wire: key longer than %d bytes", MaxKeyLen)
	ErrValueTooLong   = fmt.Errorf("wire: value longer than %d bytes", MaxValueLen)
	ErrPayloadTooLong = fmt.Errorf("wire: payload longer than %d bytes", MaxPayload)
)

// Request is one client frame.
//
// Encoding: opcode uint8, keyLen uint16, valueLen uint32, key, value.
type Request struct {
	Op    Op
	Key   string
	Value []byte
}

// Response is one server frame. Responses carry no request identifier:
// the server answers every request of a connection in arrival order, so
// the n-th response always belongs to the n-th request (docs/PROTOCOL.md
// §Pipelining).
//
// Encoding: status uint8, payloadLen uint32, payload.
type Response struct {
	Status  Status
	Payload []byte
}

// reqHeaderLen and respHeaderLen are the fixed frame header sizes.
const (
	reqHeaderLen  = 1 + 2 + 4
	respHeaderLen = 1 + 4
)

// WriteMagic sends the connection preamble.
func WriteMagic(w io.Writer) error {
	_, err := io.WriteString(w, Magic)
	return err
}

// ReadMagic consumes and verifies the connection preamble.
func ReadMagic(r io.Reader) error {
	var buf [len(Magic)]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	if string(buf[:]) != Magic {
		return ErrBadMagic
	}
	return nil
}

// EncodeRequest writes one request frame. It validates the section
// lengths so a misbehaving caller cannot emit an unframeable message.
// The header is rendered into w's free buffer space: a local array handed
// to Write would escape, one heap allocation per frame.
func EncodeRequest(w *bufio.Writer, req *Request) error {
	hdr, err := appendRequestHeader(w.AvailableBuffer(), req)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.WriteString(req.Key); err != nil {
		return err
	}
	_, err = w.Write(req.Value)
	return err
}

// AppendRequest appends one request frame to dst, byte for byte what
// EncodeRequest writes. On a length error dst is returned unchanged.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	out, err := appendRequestHeader(dst, req)
	if err != nil {
		return dst, err
	}
	out = append(out, req.Key...)
	return append(out, req.Value...), nil
}

// appendRequestHeader checks a request's section lengths and appends its
// fixed header to dst.
func appendRequestHeader(dst []byte, req *Request) ([]byte, error) {
	if len(req.Key) > MaxKeyLen {
		return dst, ErrKeyTooLong
	}
	if len(req.Value) > MaxValueLen {
		return dst, ErrValueTooLong
	}
	dst = append(dst, byte(req.Op))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Key)))
	return binary.BigEndian.AppendUint32(dst, uint32(len(req.Value))), nil
}

// DecodeRequest reads one request frame into req, reusing req.Value's
// backing array when it is large enough. An unknown opcode is not a
// decode error — the frame is still consumed, and the caller can answer
// StatusErr without losing framing. io.EOF is returned untouched when
// the stream ends cleanly between frames. The header is read in place
// from r's buffer, and the key is allocated once, as the string itself.
func DecodeRequest(r *bufio.Reader, req *Request) error {
	hdr, err := header(r, reqHeaderLen)
	if err != nil {
		return err
	}
	req.Op = Op(hdr[0])
	keyLen := int(binary.BigEndian.Uint16(hdr[1:3]))
	valueLen := int(binary.BigEndian.Uint32(hdr[3:7]))
	if _, err := r.Discard(reqHeaderLen); err != nil {
		return err
	}
	if keyLen > MaxKeyLen {
		return ErrKeyTooLong
	}
	if valueLen > MaxValueLen {
		return ErrValueTooLong
	}
	if req.Key, err = readKey(r, keyLen); err != nil {
		return unexpectedEOF(err)
	}
	if cap(req.Value) >= valueLen {
		req.Value = req.Value[:valueLen]
	} else {
		req.Value = make([]byte, valueLen)
	}
	if _, err := io.ReadFull(r, req.Value); err != nil {
		return unexpectedEOF(err)
	}
	return nil
}

// header returns the next n bytes of r without consuming them, for a
// frame header the caller parses and then discards. A stream that ends
// before the first byte returns its error untouched (io.EOF between
// frames); one that ends inside the header is io.ErrUnexpectedEOF.
func header(r *bufio.Reader, n int) ([]byte, error) {
	hdr, err := r.Peek(n)
	switch {
	case err == nil:
		return hdr, nil
	case len(hdr) == 0:
		return nil, err
	default:
		return nil, unexpectedEOF(err)
	}
}

// readKey consumes an n-byte key, copying it out of r's buffer straight
// into the string; a key longer than that buffer is read through a
// scratch slice.
func readKey(r *bufio.Reader, n int) (string, error) {
	if n == 0 {
		return "", nil
	}
	if n <= r.Size() {
		b, err := r.Peek(n)
		if err != nil {
			return "", err
		}
		key := string(b)
		_, err = r.Discard(n)
		return key, err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// EncodeResponse writes one response frame, its header rendered into
// w's free buffer space as EncodeRequest renders its own.
func EncodeResponse(w *bufio.Writer, resp *Response) error {
	if len(resp.Payload) > MaxPayload {
		return ErrPayloadTooLong
	}
	hdr := append(w.AvailableBuffer(), byte(resp.Status))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(resp.Payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(resp.Payload)
	return err
}

// DecodeResponse reads one response frame into resp, reusing
// resp.Payload's backing array when it is large enough. Its header is
// read in place from r's buffer, as DecodeRequest reads its own.
func DecodeResponse(r *bufio.Reader, resp *Response) error {
	hdr, err := header(r, respHeaderLen)
	if err != nil {
		return err
	}
	resp.Status = Status(hdr[0])
	payloadLen := int(binary.BigEndian.Uint32(hdr[1:5]))
	if _, err := r.Discard(respHeaderLen); err != nil {
		return err
	}
	if payloadLen > MaxPayload {
		return ErrPayloadTooLong
	}
	if cap(resp.Payload) >= payloadLen {
		resp.Payload = resp.Payload[:payloadLen]
	} else {
		resp.Payload = make([]byte, payloadLen)
	}
	if _, err := io.ReadFull(r, resp.Payload); err != nil {
		return unexpectedEOF(err)
	}
	return nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can tell a clean close (between frames) from a truncated frame.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendFloat64 encodes a float payload (NEST).
func AppendFloat64(dst []byte, v float64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(dst, buf[:]...)
}

// ParseFloat64 decodes a float payload.
func ParseFloat64(payload []byte) (float64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("wire: float payload is %d bytes, want 8", len(payload))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(payload)), nil
}

// AppendUint64 encodes an integer payload (LEN).
func AppendUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// ParseUint64 decodes an integer payload.
func ParseUint64(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("wire: uint payload is %d bytes, want 8", len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}
