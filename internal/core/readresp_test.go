package core

import (
	"math/rand"
	"testing"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// peerSampler answers every draw with the same fixed peers.
type peerSampler []node.ID

func (p peerSampler) One() node.ID         { return p[0] }
func (p peerSampler) Sample(int) []node.ID { return p }

// TestReadReplyAboveTheCeilingIsAMiss: a read reply whose tuple fails
// tuple.Validate — here a sequence above the ceiling — neither raises
// the version floor nor answers the Get; it counts as a miss.
func TestReadReplyAboveTheCeilingIsAMiss(t *testing.T) {
	s := NewSoftNode(1, rand.New(rand.NewSource(1)), peerSampler{2}, SoftConfig{})
	id, envs := s.Get(0, "k")
	if len(envs) != 1 {
		t.Fatalf("Get sent %d probes, want 1", len(envs))
	}
	huge := &tuple.Tuple{Key: "k", Value: []byte("v"), Version: tuple.Version{Seq: 1<<64 - 1, Writer: 2}}
	s.Handle(1, 2, epidemic.ReadResp{ReqID: id, Tuple: huge})
	if v, known := s.Seq.Latest("k"); known {
		t.Fatalf("the reply raised the floor of k to %v", v)
	}
	if op, _ := s.Op(id); !op.Done || op.Tuple != nil {
		t.Fatalf("Get done=%v tuple=%v, want a completed miss", op.Done, op.Tuple)
	}
	if s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}
}
