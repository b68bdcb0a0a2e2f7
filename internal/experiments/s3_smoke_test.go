package experiments

import "testing"

func TestRailFailoverShape(t *testing.T) {
	r := result(t, "S3")
	shape(t, r, 3, 2)
	series(t, r, 2)
	if len(r.Notes) == 0 {
		t.Fatal("no notes")
	}
}
