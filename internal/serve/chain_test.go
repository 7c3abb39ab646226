package serve

import (
	"context"
	"testing"

	"mobilstm/internal/equivtest"
	"mobilstm/internal/tensor"
)

// TestMain fails the package if a test leaves the process-default
// kernel chain switched.
func TestMain(m *testing.M) { equivtest.Main(m) }

// TestServeChainPlumbing pins the process default as the server's one
// chain selector: with it switched to the wide chain, requests are
// served and the stats snapshot reports avx2.
func TestServeChainPlumbing(t *testing.T) {
	equivtest.UseChain(t, tensor.ChainAVX2)
	s := New(tinyConfig())
	defer s.Close()

	resp, err := s.Submit(context.Background(), Request{Bench: "MR"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Bench != "MR" {
		t.Fatalf("bad response %+v", resp)
	}
	if got := s.Stats().Chain; got != "avx2" {
		t.Fatalf("Stats().Chain = %q, want avx2", got)
	}
}

// TestServeChainArtifactNeutral pins the warm-cache contract: the
// engine artifact carries no chain, so a cold build published under the
// wide default is adopted by a server under the canonical default,
// which serves from it and reports its own chain.
func TestServeChainArtifactNeutral(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cache = NewEngineCache()
	t.Run("cold build under avx2", func(t *testing.T) {
		equivtest.UseChain(t, tensor.ChainAVX2)
		a := New(cfg)
		defer a.Close()
		if _, err := a.Submit(context.Background(), Request{Bench: "MR"}); err != nil {
			t.Fatalf("cold submit: %v", err)
		}
	})
	if _, ok := cfg.Cache.Acquire(artifactKey("MR", cfg)); !ok {
		t.Fatal("cold build did not publish an artifact")
	}

	canon := equivtest.Canonical()
	equivtest.UseChain(t, canon)
	b := New(cfg)
	defer b.Close()
	if _, err := b.Submit(context.Background(), Request{Bench: "MR"}); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if !b.engine("MR").installed {
		t.Fatal("second server did not adopt the cached artifact")
	}
	if got := b.Stats().Chain; got != canon.String() {
		t.Fatalf("adopter Stats().Chain = %q, want %v", got, canon)
	}
}
