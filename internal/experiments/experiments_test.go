package experiments

import (
	"strings"
	"testing"
)

// The shape tests check structure only — row counts and series lengths.
// Every number is a claim, checked by TestClaims.

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "A4", "A5", "A6", "E1", "E2", "F10", "F11", "F12", "F13", "F4", "F7", "F9", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "T1"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("ZZ"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// shape fails unless res has the given row count in each table.
func shape(t *testing.T, res Result, rows ...int) {
	t.Helper()
	if len(res.Tables) != len(rows) {
		t.Fatalf("%s: %d tables, want %d", res.ID, len(res.Tables), len(rows))
	}
	for i, n := range rows {
		if got := len(res.Tables[i].Rows); got != n {
			t.Fatalf("%s table %d: %d rows, want %d", res.ID, i, got, n)
		}
	}
}

// series fails unless res has the given series lengths.
func series(t *testing.T, res Result, lens ...int) {
	t.Helper()
	if len(res.Series) != len(lens) {
		t.Fatalf("%s: %d series, want %d", res.ID, len(res.Series), len(lens))
	}
	for i, n := range lens {
		if got := res.Series[i].Len(); got != n {
			t.Fatalf("%s series %d: %d points, want %d", res.ID, i, got, n)
		}
	}
}

func TestMotivatingIperfShape(t *testing.T) { shape(t, result(t, "E1"), 2) }

func TestStreamTriadShape(t *testing.T) {
	res := result(t, "E2")
	shape(t, res, 8)
	for _, row := range res.Tables[0].Rows {
		if row[0] == "Triad" && row[2] == "bind" {
			return
		}
	}
	t.Fatal("Triad row missing")
}

func TestCostBreakdownShape(t *testing.T) { shape(t, result(t, "F4"), 2) }

func TestISERBandwidthShape(t *testing.T) {
	res := result(t, "F7")
	shape(t, res, 8, 8)
	series(t, res, 4, 4, 4, 4)
}

func TestISERCPUShape(t *testing.T) {
	if h := result(t, "F7").Tables[1].Headers; h[len(h)-1] != "ratio" {
		t.Fatalf("F7 second table is not the CPU table: %v", h)
	}
}

func TestWANBandwidthShape(t *testing.T) {
	res := result(t, "F13")
	shape(t, res, 4, 4, 4)
	series(t, res, 5, 5, 5, 5)
}

func TestSSDThermalShape(t *testing.T) {
	res := result(t, "A1")
	shape(t, res, 2)
	if len(res.Series) != 1 || res.Series[0].Len() == 0 {
		t.Fatal("missing series")
	}
}

func TestTestbedTableComplete(t *testing.T) {
	res := TestbedTable()
	if len(res.Tables[0].Rows) < 6 {
		t.Fatal("Table 1 rows missing")
	}
}

func TestResultString(t *testing.T) {
	res := TestbedTable()
	out := res.String()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "Table 1") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestCreditAblationMonotone(t *testing.T) {
	res := result(t, "A3")
	shape(t, res, 7)
	series(t, res, 7)
}

func TestDirectIOAblationShape(t *testing.T) { shape(t, result(t, "A4"), 2) }

func TestStorageMediaAblationOrdering(t *testing.T) { shape(t, result(t, "A5"), 3) }

func TestRenderChart(t *testing.T) {
	out := result(t, "A3").RenderChart()
	if out == "" || !strings.Contains(out, "credits-Gbps") {
		t.Fatalf("chart render broken:\n%s", out)
	}
	// Results without series render nothing.
	if TestbedTable().RenderChart() != "" {
		t.Fatal("chart for series-less result should be empty")
	}
}

func TestEndToEndExperimentSmoke(t *testing.T) {
	res := result(t, "F9")
	shape(t, res, 3)
	// 25 minutes sampled every 30 s.
	series(t, res, 50, 50)
}

func TestBiDirectionalExperimentSmoke(t *testing.T) {
	res := result(t, "F11")
	shape(t, res, 2)
	series(t, res, 50, 50, 50, 50)
}

func TestCPUBreakdownExperimentsSmoke(t *testing.T) {
	shape(t, result(t, "F10"), 4)
	shape(t, result(t, "F12"), 4)
}

func TestFioCeilingSmoke(t *testing.T) { shape(t, result(t, "A2"), 3) }

func TestWANCPUSmoke(t *testing.T) {
	for _, tb := range result(t, "F13").Tables[1:] {
		if !strings.Contains(tb.Title, "CPU % (Fig. 14") {
			t.Fatalf("F13 table %q is not a Fig. 14 CPU table", tb.Title)
		}
	}
}

func TestSchedulerSaturationShape(t *testing.T) {
	res := result(t, "S1")
	shape(t, res, 5, 1)
	series(t, res, 5, 5)
}

func TestChaosRecoveryShape(t *testing.T) {
	res := result(t, "S2")
	shape(t, res, 5, 4)
	series(t, res, 5, 5)
}

func TestGrayFailureShape(t *testing.T) {
	res := result(t, "S7")
	// Baseline row plus 3 severities × 3 modes; 3 ladder points.
	shape(t, res, 10)
	series(t, res, 3)
}

func TestFileSizeAblationMonotone(t *testing.T) {
	res := result(t, "A6")
	shape(t, res, 4)
	series(t, res, 4)
}
