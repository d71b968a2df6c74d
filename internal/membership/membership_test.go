package membership

import (
	"math/rand"
	"testing"

	"datadroplets/internal/node"
)

func population(n int) []node.ID {
	out := make([]node.ID, n)
	for i := range out {
		out[i] = node.ID(i + 1)
	}
	return out
}

func TestUniformViewExcludesSelf(t *testing.T) {
	pop := population(10)
	u := NewUniformView(3, rand.New(rand.NewSource(1)), func() []node.ID { return pop })
	for i := 0; i < 100; i++ {
		for _, id := range u.Sample(5) {
			if id == 3 {
				t.Fatal("sample included self")
			}
		}
	}
}

func TestUniformViewDistinct(t *testing.T) {
	pop := population(20)
	u := NewUniformView(1, rand.New(rand.NewSource(2)), func() []node.ID { return pop })
	s := u.Sample(19)
	seen := map[node.ID]bool{}
	for _, id := range s {
		if seen[id] {
			t.Fatalf("duplicate peer %v in sample", id)
		}
		seen[id] = true
	}
	if len(s) != 19 {
		t.Fatalf("sample size = %d, want 19", len(s))
	}
}

func TestUniformViewKLargerThanPopulation(t *testing.T) {
	pop := population(3)
	u := NewUniformView(1, rand.New(rand.NewSource(3)), func() []node.ID { return pop })
	if got := len(u.Sample(10)); got != 2 {
		t.Fatalf("sample size = %d, want 2 (population minus self)", got)
	}
}

// TestUniformViewCovers checks Covers against what a draw of k returns,
// with self in the population list and without it.
func TestUniformViewCovers(t *testing.T) {
	pop := population(5)
	for _, self := range []node.ID{3, 9} {
		u := NewUniformView(self, rand.New(rand.NewSource(6)), func() []node.ID { return pop })
		peers := len(u.Sample(len(pop)))
		for k := 0; k <= len(pop)+1; k++ {
			if got, want := u.Covers(k), len(u.Sample(k)) == peers; got != want {
				t.Fatalf("self %v: Covers(%d) = %v, a draw of %d returns every peer: %v", self, k, got, k, want)
			}
		}
	}
}

func TestUniformViewEmpty(t *testing.T) {
	u := NewUniformView(1, rand.New(rand.NewSource(4)), func() []node.ID { return nil })
	if u.Sample(3) != nil {
		t.Fatal("sample from empty population should be nil")
	}
	if u.One() != node.None {
		t.Fatal("One from empty population should be None")
	}
}

// TestUniformViewIsUniform checks the sampler against a chi-squared bound:
// each of 20 peers should be drawn with roughly equal frequency.
func TestUniformViewIsUniform(t *testing.T) {
	pop := population(21)
	u := NewUniformView(21, rand.New(rand.NewSource(5)), func() []node.ID { return pop })
	counts := map[node.ID]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[u.One()]++
	}
	expected := float64(draws) / 20
	var chi2 float64
	for id := node.ID(1); id <= 20; id++ {
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	// 19 degrees of freedom; 43.8 is the 0.999 quantile.
	if chi2 > 43.8 {
		t.Fatalf("chi2 = %v, sampler not uniform", chi2)
	}
}
