package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// opKind is one class of client operation. Hits and misses are kept
// apart from the moment they are generated: a Get of a preloaded key
// must return a value, a Get of a never-written key must not.
type opKind uint8

const (
	opGet  opKind = iota // Get of a preloaded, undeleted key
	opMiss               // Get of a never-written key
	opPut
	opDel
	nKinds
)

func (k opKind) String() string {
	return [...]string{"GET", "GET-MISS", "PUT", "DEL"}[k]
}

// mix is an operation mix as shares summing to 1.
type mix struct{ get, miss, put, del float64 }

// keyset is the benchmark's key universe, derived from the seed so that
// every seed places its keys elsewhere on the hash ring.
type keyset struct {
	names  []string
	hashes []uint64
	absent []string // never written; a Get must answer NOT_FOUND
}

// absentKeys is how many distinct never-written keys a workload draws
// its misses from.
const absentKeys = 4096

func newKeyset(seed int64, n int) *keyset {
	tag := uint32(uint64(seed)*0x9e3779b97f4a7c15>>32) & 0xffffff
	ks := &keyset{
		names:  make([]string, n),
		hashes: make([]uint64, n),
		absent: make([]string, absentKeys),
	}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("%06x/k%07d", tag, i)
		ks.hashes[i] = keyHash(ks.names[i])
	}
	for i := range ks.absent {
		ks.absent[i] = fmt.Sprintf("%06x/absent%05d", tag, i)
	}
	return ks
}

// keyHash is FNV-1a; it ties a value to the key it was written for.
func keyHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// valueHeader is the self-describing prefix of every written value:
// key hash, writer connection, per-writer sequence number, total length.
const valueHeader = 8 + 4 + 8 + 4

// fillValue writes the value for (key hash, writer, seq) into dst, which
// must be at least valueHeader long. The bytes after the header are a
// stream derived from the header, so a truncated, spliced or foreign
// value cannot verify.
func fillValue(dst []byte, h uint64, writer uint32, seq uint64) {
	binary.BigEndian.PutUint64(dst[0:8], h)
	binary.BigEndian.PutUint32(dst[8:12], writer)
	binary.BigEndian.PutUint64(dst[12:20], seq)
	binary.BigEndian.PutUint32(dst[20:24], uint32(len(dst)))
	x := fillerSeed(h, writer, seq)
	for i := valueHeader; i < len(dst); i++ {
		if (i-valueHeader)%8 == 0 {
			x = xorshift(x)
		}
		dst[i] = byte(x >> (8 * uint((i-valueHeader)%8)))
	}
}

// checkValue verifies that v is a value some benchmark writer produced
// for the key with hash h, and returns who wrote it.
func checkValue(v []byte, h uint64) (writer uint32, seq uint64, ok bool) {
	if len(v) < valueHeader || binary.BigEndian.Uint64(v[0:8]) != h || binary.BigEndian.Uint32(v[20:24]) != uint32(len(v)) {
		return 0, 0, false
	}
	writer = binary.BigEndian.Uint32(v[8:12])
	seq = binary.BigEndian.Uint64(v[12:20])
	x := fillerSeed(h, writer, seq)
	for i := valueHeader; i < len(v); i++ {
		if (i-valueHeader)%8 == 0 {
			x = xorshift(x)
		}
		if v[i] != byte(x>>(8*uint((i-valueHeader)%8))) {
			return writer, seq, false
		}
	}
	return writer, seq, true
}

// fillerSeed mixes the header into the filler stream's start (the
// splitmix64 finaliser), so that every header bit reaches every filler
// byte. It is never 0, which xorshift could not leave.
func fillerSeed(h uint64, writer uint32, seq uint64) uint64 {
	z := h ^ (seq+1)*0x9e3779b97f4a7c15 ^ uint64(writer)<<32
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) | 1
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// preloadWriter is the writer id of preloaded values; load connections
// use their index.
const preloadWriter = 0xffffffff

// opStream generates one connection's operations. Equal (seed, conn)
// give equal streams; nothing else feeds it.
type opStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf // nil: uniform keys
	ks   *keyset
	mix  mix
	conn int
	// stride > 1 confines the stream to keys ≡ conn (mod stride). A
	// workload that deletes uses it so each key has one writer and the
	// generator knows, without asking the servers, which keys are
	// deleted right now.
	stride  int
	rankMul int // zipf rank -> key index, a bijection mod len(keys)
	seq     uint64
	deleted []bool
	redo    []int // deleted keys waiting to be re-Put, oldest first
}

func newOpStream(seed int64, conn, conns int, ks *keyset, m mix, zipfS float64) *opStream {
	s := &opStream{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1)),
		ks:     ks,
		mix:    m,
		conn:   conn,
		stride: 1,
	}
	if m.del > 0 {
		s.stride = conns
		s.deleted = make([]bool, len(ks.names))
	}
	if zipfS > 0 {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(ks.names)-1))
		for _, p := range []int{7919, 7907, 7901, 7883} {
			if gcd(p, len(ks.names)) == 1 {
				s.rankMul = p
				break
			}
		}
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// drawKey picks a key index from the workload's key distribution,
// inside this stream's partition.
func (s *opStream) drawKey() int {
	n := len(s.ks.names)
	var k int
	if s.zipf != nil {
		k = int(s.zipf.Uint64()) * s.rankMul % n
	} else {
		k = s.rng.Intn(n)
	}
	if s.stride > 1 {
		k = k - k%s.stride + s.conn
		if k >= n {
			k = s.conn
		}
	}
	return k
}

// liveKey is drawKey stepped forward past currently deleted keys.
func (s *opStream) liveKey() int {
	k := s.drawKey()
	for s.deleted != nil && s.deleted[k] {
		k += s.stride
		if k >= len(s.ks.names) {
			k = s.conn
		}
	}
	return k
}

// next returns the next operation. For opMiss the key indexes
// ks.absent, otherwise ks.names.
func (s *opStream) next() (opKind, int) {
	u := s.rng.Float64()
	switch {
	case u < s.mix.get:
		return opGet, s.liveKey()
	case u < s.mix.get+s.mix.miss:
		return opMiss, s.rng.Intn(len(s.ks.absent))
	case u < s.mix.get+s.mix.miss+s.mix.put:
		if len(s.redo) > 0 {
			k := s.redo[0]
			s.redo = s.redo[1:]
			s.deleted[k] = false
			return opPut, k
		}
		return opPut, s.drawKeyForPut()
	default:
		k := s.liveKey()
		s.deleted[k] = true
		s.redo = append(s.redo, k)
		return opDel, k
	}
}

// drawKeyForPut is drawKey moved off deleted keys: only the redo queue
// revives a deleted key, so the queue and the deleted set stay in step.
func (s *opStream) drawKeyForPut() int {
	k := s.drawKey()
	if s.deleted != nil && s.deleted[k] {
		return s.liveKey()
	}
	return k
}

// value fills buf with this stream's next value for key k.
func (s *opStream) value(buf []byte, k int) {
	s.seq++
	fillValue(buf, s.ks.hashes[k], uint32(s.conn), s.seq)
}
