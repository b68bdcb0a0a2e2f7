package rftp

import (
	"testing"

	"e2edt/internal/fabric"
	"e2edt/internal/numa"
	"e2edt/internal/pipe"
	"e2edt/internal/placer"
	"e2edt/internal/sim"
	"e2edt/internal/testbed"
	"e2edt/internal/units"
)

// framings starts one session of each framing over 12 GB: a payload, a
// set of 48 files and a window of 48 objects, 256 MB each.
var framings = []struct {
	name  string
	items int // 0 for the payload
	start func(p *testbed.MotivatingPair, cfg Config, prm Params) (*Transfer, error)
}{
	{"payload", 0, func(p *testbed.MotivatingPair, cfg Config, prm Params) (*Transfer, error) {
		return Start(p.Links, p.A, cfg, prm, pipe.Zero{}, pipe.Null{}, 12*float64(units.GB), nil)
	}},
	{"file set", 48, func(p *testbed.MotivatingPair, cfg Config, prm Params) (*Transfer, error) {
		return StartSet(p.Links, p.A, cfg, prm, pipe.Zero{}, pipe.Null{}, uniformSet(48, 256*units.MB), nil)
	}},
	{"object window", 48, func(p *testbed.MotivatingPair, cfg Config, prm Params) (*Transfer, error) {
		return StartBatch(p.Links, p.A, cfg, prm, pipe.Zero{}, pipe.Null{}, smallObjects(48, 256*units.MB), nil, nil)
	}},
}

// TestEveryFramingHonoursEveryParam: for every framing, each Params and
// Config field that shapes a session is either rejected by Start or has an
// observable effect. None is silently ignored.
func TestEveryFramingHonoursEveryParam(t *testing.T) {
	var pl *placer.Engine
	fields := []struct {
		name string
		set  func(p *testbed.MotivatingPair, cfg *Config, prm *Params)
		// fault is scheduled on the pair before it runs.
		fault func(ls []*fabric.Link, eng *sim.Engine)
		// seen reports the field's effect on a completed session.
		seen func(tr *Transfer) bool
		// itemsReject: item sessions must refuse the field at Start.
		itemsReject bool
	}{
		{"AckTimeout", func(_ *testbed.MotivatingPair, _ *Config, prm *Params) { *prm = recoveryParams() },
			func(ls []*fabric.Link, eng *sim.Engine) {
				eng.At(0.2, ls[1].Fail)
				eng.At(0.4, ls[1].Restore)
			},
			func(tr *Transfer) bool { return tr.Recoveries > 0 }, false},
		{"Rails", func(_ *testbed.MotivatingPair, _ *Config, prm *Params) { *prm = railParams() },
			func(ls []*fabric.Link, eng *sim.Engine) { eng.At(0.2, ls[1].Fail) },
			func(tr *Transfer) bool { return tr.Migrations > 0 }, false},
		{"Hedge", func(_ *testbed.MotivatingPair, cfg *Config, prm *Params) {
			*cfg, *prm = creditCfg(), grayParams(true, true)
		},
			func(ls []*fabric.Link, eng *sim.Engine) { eng.At(0.15, func() { ls[1].GrayDegrade(0.3) }) },
			func(tr *Transfer) bool { return tr.Hedges > 0 }, false},
		{"Checksum", func(_ *testbed.MotivatingPair, cfg *Config, _ *Params) { cfg.Checksum = true },
			func(ls []*fabric.Link, eng *sim.Engine) { eng.At(0.2, ls[0].InjectCorruption) },
			func(tr *Transfer) bool { return tr.CorruptionsDetected == 1 && tr.IntegrityViolations == 0 }, false},
		{"StartOffset", func(_ *testbed.MotivatingPair, _ *Config, prm *Params) { prm.StartOffset = units.GB },
			nil,
			func(tr *Transfer) bool { return tr.Size == 11*float64(units.GB) }, true},
		{"Placer", func(p *testbed.MotivatingPair, cfg *Config, _ *Params) {
			pl = placer.New(p.A.Sim)
			cfg.Policy, cfg.Placer = numa.PolicyAuto, pl
		},
			nil,
			func(*Transfer) bool { return pl.Placements() > 0 }, false},
	}
	for _, fr := range framings {
		for _, f := range fields {
			t.Run(fr.name+"/"+f.name, func(t *testing.T) {
				p := testbed.NewMotivatingPair()
				cfg, prm := DefaultConfig(), DefaultParams()
				f.set(p, &cfg, &prm)
				tr, err := fr.start(p, cfg, prm)
				if f.itemsReject && fr.items > 0 {
					if err == nil {
						t.Fatalf("%s accepted %s", fr.name, f.name)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if f.fault != nil {
					f.fault(p.Links, p.Eng)
				}
				p.Eng.Run()
				if tr.Finished() <= 0 || tr.Failed() {
					t.Fatalf("session did not complete (failed=%v)", tr.Failed())
				}
				if got := tr.Transferred(); !near(got, tr.Size, 1e-6) {
					t.Fatalf("delivered %g of %g bytes", got, tr.Size)
				}
				if tr.Delivered() != fr.items {
					t.Fatalf("delivered %d of %d items", tr.Delivered(), fr.items)
				}
				if !f.seen(tr) {
					t.Fatalf("%s had no effect on a %s", f.name, fr.name)
				}
			})
		}
	}
}
