package experiments

import "testing"

func TestObjectGatewayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("S8 sweeps a 1024-object per-object cell")
	}
	r := result(t, "S8")
	// Bulk baseline + 4 coalescing cells; 2 cluster cells.
	shape(t, r, 5, 2)
	if len(r.Notes) == 0 {
		t.Fatal("no notes")
	}
}
