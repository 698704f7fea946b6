package check

import (
	"strings"
	"testing"
)

func TestGaugeWithinBoundsIsSilent(t *testing.T) {
	a := New(1, "gauge test")
	g := NewGauge(a, "test.slots", 3)
	for _, d := range []int64{1, 1, 1, -2, 2, -3} {
		g.Add(d)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("in-bounds gauge raised a violation: %v", err)
	}
	if g.Value() != 0 {
		t.Fatalf("value = %d, want 0", g.Value())
	}
	if g.Bound() != 3 {
		t.Fatalf("bound = %d, want 3", g.Bound())
	}
}

func TestGaugeOverBoundViolates(t *testing.T) {
	a := New(1, "gauge test")
	a.SetArtifactDir(t.TempDir())
	g := NewGauge(a, "test.slots", 2)
	g.Add(2)
	if err := a.Err(); err != nil {
		t.Fatalf("reaching the bound must be legal: %v", err)
	}
	g.Add(1)
	err := a.Err()
	if err == nil {
		t.Fatal("exceeding the bound raised no violation")
	}
	if !strings.Contains(err.Error(), "test.slots") || !strings.Contains(err.Error(), "exceeds bound 2") {
		t.Fatalf("violation not keyed/detailed as expected: %v", err)
	}
}

func TestGaugeNegativeViolates(t *testing.T) {
	a := New(1, "gauge test")
	a.SetArtifactDir(t.TempDir())
	g := NewGauge(a, "test.slots", 0) // unbounded above
	g.Add(5)
	g.Add(-6)
	err := a.Err()
	if err == nil {
		t.Fatal("negative gauge raised no violation")
	}
	if !strings.Contains(err.Error(), "went negative") {
		t.Fatalf("violation detail missing: %v", err)
	}
}

func TestGaugeNilLedgerCountsOnly(t *testing.T) {
	g := NewGauge(nil, "test.slots", 1)
	g.Add(5)
	g.Add(-9)
	if g.Value() != -4 {
		t.Fatalf("nil-ledger gauge must still count: %d", g.Value())
	}
}
