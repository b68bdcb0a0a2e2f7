// Package placer is an adaptive NUMA placement engine: it discovers at
// runtime the thread/buffer placement the paper's authors found by hand
// (numactl-bound iperf, per-node iSER targets) and maintains it as the load
// shifts (rail death, tenant churn), where no static binding stays optimal.
//
// The engine closes a sensor → scorer → actuator loop on the simulated
// clock:
//
//   - Sensor: fluid.Network.Utilization() snapshots per-resource load
//     (memory-controller saturation, interconnect traffic, core load). A
//     placement-induced bottleneck shows up as a saturated resource while
//     sibling resources idle.
//   - Scorer: candidate layouts are evaluated by what-if solves against the
//     live fluid model. A candidate is applied transiently (threads pinned,
//     buffers re-homed), every tracked flow's cost coefficients are rebuilt
//     exactly the way the owning subsystem built them, the network is
//     re-solved, and the layout is scored by Nash welfare — the sum of log
//     flow rates. Welfare, unlike aggregate rate, is not blind to load
//     imbalance: max-min filling keeps every link full no matter which
//     flows sit where, so two layouts with a 5:1 and a 3:3 split across two
//     rails have identical aggregate rate, but the balanced one has the
//     higher geometric mean — and the lower per-command latency once
//     bounded queue depths are in play. The candidate is then reverted
//     bit-exactly. Because the whole evaluation happens at one virtual
//     instant, transient rates never integrate into transferred bytes:
//     what-if scoring is free of observational side effects.
//   - Actuator: the best candidate is committed only if it clears a gain
//     threshold (hysteresis), the entity is outside its migration cooldown,
//     and — for already-placed entities — a resource is actually saturated.
//     Committing a move that re-homes memory starts a one-shot migration
//     transfer that charges the page-copy traffic (old home read, new home
//     write, coherency invalidations) through the fluid network, so
//     migrations transiently contend with the payload they are trying to
//     help.
//
// Everything is deterministic: entities are scanned in registration order,
// candidate nodes in index order, ties keep the lowest node index, and the
// scan runs on the discrete-event clock. Same seed, same trace — the
// engine's decisions replay bit-identically.
package placer

import (
	"fmt"
	"math"

	"e2edt/internal/fluid"
	"e2edt/internal/host"
	"e2edt/internal/numa"
	"e2edt/internal/sim"
)

// The control loop's tuning.
const (
	// cadence is the scan interval.
	cadence = 20 * sim.Millisecond
	// moveGain is the minimum welfare gain to migrate an already-placed
	// entity, expressed as an equivalent relative rate gain (a move must
	// improve Nash welfare by at least log(1+moveGain)); it is the
	// flap-prevention hysteresis band.
	// First placements are exempt: the initial-placement solver always
	// commits the argmax layout (a single hill-climb step from the
	// all-spread start is usually *negative* — one pinned thread contends
	// with everyone else's spread load — so a gain gate would deadlock the
	// solver in the spread local optimum).
	moveGain = 0.02
	// cooldown is the minimum virtual time between migrations of one
	// entity.
	cooldown = 250 * sim.Millisecond
	// utilThreshold gates re-migration: an already-placed entity is only
	// reconsidered while some fluid resource runs at or above this share of
	// its capacity (a bottleneck exists). First placements are exempt.
	utilThreshold = 0.85
	// maxMovesPerScan bounds migration commits per scan so the executor
	// never storms the machine with simultaneous page migrations. Initial
	// placements are exempt: the whole starting layout lands in one scan.
	maxMovesPerScan = 2
)

// Entity is one placeable unit: a set of threads that execute together and
// the buffers they own. The engine pins the threads to cores of one node
// and re-homes the buffers there.
type Entity struct {
	Name    string
	M       *numa.Machine
	Threads []*host.Thread
	Buffers []*numa.Buffer
	// MigrateBytes is the page-copy volume charged when a committed move
	// re-homes the buffers (the hot working set, under lazy migration).
	// Zero models an entity whose buffers are re-allocated rather than
	// copied.
	MigrateBytes float64

	node     *numa.Node // nil until first placement
	lastMove sim.Time
	moved    bool
}

// Node returns the node the entity is currently placed on (nil = unplaced).
func (en *Entity) Node() *numa.Node { return en.node }

// placement is a bit-exact snapshot of an entity's thread pins and buffer
// homes, for what-if revert.
type placement struct {
	cores []*numa.Core
	homes [][]*numa.Node
}

func (en *Entity) snapshot() placement {
	p := placement{cores: make([]*numa.Core, len(en.Threads))}
	for i, t := range en.Threads {
		p.cores[i] = t.Core
	}
	p.homes = make([][]*numa.Node, len(en.Buffers))
	for i, b := range en.Buffers {
		p.homes[i] = append([]*numa.Node(nil), b.Homes...)
	}
	return p
}

func (en *Entity) restore(p placement) {
	for i, t := range en.Threads {
		t.Pin(p.cores[i])
	}
	for i, b := range en.Buffers {
		b.Rehome(p.homes[i]...)
	}
}

// apply pins the entity onto node n and re-homes its buffers there. Each
// thread takes the least-occupied core of n (ties to the lowest index),
// where occupancy counts the pins of every managed entity — a pure
// function of current placement state, so a what-if apply/restore pair
// reverts exactly, and sibling pools fill a node's cores evenly instead of
// stacking on core 0.
func (e *Engine) apply(en *Entity, n *numa.Node) {
	occ := make(map[*numa.Core]int, len(n.Cores))
	for _, other := range e.entities {
		for _, t := range other.Threads {
			if t.Core != nil && t.Core.Node == n {
				occ[t.Core]++
			}
		}
	}
	for _, t := range en.Threads {
		if t.Core != nil && t.Core.Node == n {
			occ[t.Core]-- // this pin is being replaced
		}
		best := n.Cores[0]
		for _, c := range n.Cores[1:] {
			if occ[c] < occ[best] {
				best = c
			}
		}
		t.Pin(best)
		occ[best]++
	}
	for _, b := range en.Buffers {
		b.Rehome(n)
	}
}

// tracked is one flow whose coefficients the engine may rebuild.
type tracked struct {
	flow    *fluid.Flow
	rebuild func(*fluid.Flow)
}

// Stats counts engine activity.
type Stats struct {
	Scans      int
	Evals      int // what-if solves
	Placements int // first placements committed
	Migrations int // re-placements committed
}

// Engine is the adaptive placement controller for one fluid simulation
// (entities may span several hosts and machines sharing that simulation).
type Engine struct {
	Sim *fluid.Sim
	Eng *sim.Engine

	entities []*Entity
	flows    []tracked
	index    map[*fluid.Flow]int
	stats    Stats
	scan     *sim.Event
	migSeq   int
}

// New returns an engine over the given fluid simulation. The loop is
// dormant until the first flow is tracked.
func New(s *fluid.Sim) *Engine {
	return &Engine{
		Sim:   s,
		Eng:   s.Engine,
		index: make(map[*fluid.Flow]int),
	}
}

// AddEntity registers a placeable unit. Entities are scanned in
// registration order.
func (e *Engine) AddEntity(name string, m *numa.Machine, threads []*host.Thread, buffers []*numa.Buffer, migrateBytes float64) *Entity {
	if m == nil {
		panic("placer: entity without machine")
	}
	en := &Entity{
		Name:         name,
		M:            m,
		Threads:      threads,
		Buffers:      buffers,
		MigrateBytes: migrateBytes,
		lastMove:     -sim.Time(math.Inf(1)),
	}
	e.entities = append(e.entities, en)
	return en
}

// Track registers a flow whose goodput the engine optimizes. rebuild must
// clear nothing itself: the engine empties f.Uses and calls rebuild to
// re-attach every cost coefficient from the owning subsystem's current
// placement state. rebuild must be a pure function of that state (no
// shared counters), or replays diverge.
func (e *Engine) Track(f *fluid.Flow, rebuild func(*fluid.Flow)) {
	if f == nil || rebuild == nil {
		panic("placer: Track needs a flow and a rebuilder")
	}
	if _, dup := e.index[f]; dup {
		panic(fmt.Sprintf("placer: flow %s tracked twice", f.Name))
	}
	e.index[f] = len(e.flows)
	e.flows = append(e.flows, tracked{f, rebuild})
	e.arm()
}

// Untrack removes a flow (at cancel/completion). Untracked flows keep
// their current coefficients.
func (e *Engine) Untrack(f *fluid.Flow) {
	i, ok := e.index[f]
	if !ok {
		return
	}
	delete(e.index, f)
	e.flows = append(e.flows[:i], e.flows[i+1:]...)
	for j := i; j < len(e.flows); j++ {
		e.index[e.flows[j].flow] = j
	}
}

// Tracked returns the number of flows currently under management.
func (e *Engine) Tracked() int { return len(e.flows) }

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Migrations returns committed moves after the first placement.
func (e *Engine) Migrations() int { return e.stats.Migrations }

// Placements returns committed first placements.
func (e *Engine) Placements() int { return e.stats.Placements }

// arm schedules the next scan if the loop is dormant and there is work.
// The timer is one-shot and self-arming: when the last tracked flow
// completes the loop goes dormant, so eng.Run() can drain.
func (e *Engine) arm() {
	if e.scan != nil || len(e.flows) == 0 {
		return
	}
	e.scan = e.Eng.Schedule(cadence, e.tick)
}

func (e *Engine) tick() {
	e.scan = nil
	if len(e.flows) == 0 {
		return
	}
	e.runScan()
	e.arm()
}

// rebuildAll re-derives every tracked flow's coefficients from current
// placement state and re-solves from scratch. Truncating Uses in place is
// a change no fluid setter records, so the network must be invalidated
// explicitly. Invalidating first unlinks every flow, so the rebuild merges
// repeated charges exactly as the first build did.
func (e *Engine) rebuildAll() {
	e.Sim.Network.Invalidate()
	for _, tr := range e.flows {
		tr.flow.Uses = tr.flow.Uses[:0]
		tr.rebuild(tr.flow)
	}
	e.Sim.Network.Resolve()
}

// welfare is the optimization objective: Nash welfare, the sum of log
// rates over tracked flows. Maximal where the hand-tuned binding is
// (every flow's costs local), but — unlike aggregate rate — it also
// distinguishes balanced layouts from skewed ones when max-min filling
// keeps the aggregate constant. Rates are floored at 1 byte/s so a
// stalled flow (dead rail) contributes a large but finite penalty.
func (e *Engine) welfare() float64 {
	total := 0.0
	for _, tr := range e.flows {
		total += math.Log(math.Max(tr.flow.Rate(), 1))
	}
	return total
}

// bottleneck reports whether any fluid resource runs at or above the
// configured utilization threshold (the sensor's re-migration gate).
func (e *Engine) bottleneck() bool {
	for _, u := range e.Sim.Network.Utilization() {
		if u.Capacity > 0 && u.Share >= utilThreshold {
			return true
		}
	}
	return false
}

// runScan is one control-loop iteration at one virtual instant: first the
// initial-placement solver lays out any unplaced entities, then the online
// controller considers migrations for placed ones. It ends with the
// network solved for the committed placement and the completion schedule
// refreshed.
func (e *Engine) runScan() {
	e.stats.Scans++
	e.Sim.Sync()
	now := e.Eng.Now()
	// Solve the as-is state so baseline rates and utilization are current.
	e.rebuildAll()

	// Initial-placement solver: greedy sequential joint layout. Each
	// unplaced entity commits its argmax candidate even when the immediate
	// gain is negative — intermediate states contend (one pinned thread on
	// a core still carrying everyone else's spread load), but the argmax
	// still ranks candidates correctly and the contention dissolves as the
	// rest of the layout lands in the same scan.
	for _, en := range e.entities {
		if en.node != nil || (len(en.Threads) == 0 && len(en.Buffers) == 0) {
			continue
		}
		base := e.welfare()
		before := en.snapshot()
		bestGain := math.Inf(-1)
		var bestNode *numa.Node
		for _, cand := range en.M.Nodes {
			e.apply(en, cand)
			e.rebuildAll()
			e.stats.Evals++
			// Strict > keeps the lowest node index on exact ties.
			if gain := e.welfare() - base; gain > bestGain {
				bestGain, bestNode = gain, cand
			}
			en.restore(before)
		}
		e.rebuildAll()
		e.commit(en, bestNode, before, bestGain)
	}

	// Online migration controller: only while a bottleneck exists, only
	// outside the per-entity cooldown, only for gains clearing the
	// hysteresis band, and at most maxMovesPerScan commits per scan.
	moves := 0
	for _, en := range e.entities {
		if moves >= maxMovesPerScan {
			break
		}
		if en.node == nil || (len(en.Threads) == 0 && len(en.Buffers) == 0) {
			continue
		}
		if now-en.lastMove < sim.Time(cooldown) {
			continue
		}
		if !e.bottleneck() {
			break
		}
		base := e.welfare()
		before := en.snapshot()
		bestGain := 0.0
		var bestNode *numa.Node
		for _, cand := range en.M.Nodes {
			if cand == en.node {
				continue
			}
			e.apply(en, cand)
			e.rebuildAll()
			e.stats.Evals++
			if gain := e.welfare() - base; gain > bestGain {
				bestGain, bestNode = gain, cand
			}
			en.restore(before)
		}
		// Restore the committed state of the world before deciding.
		e.rebuildAll()
		if bestNode == nil || bestGain < math.Log1p(moveGain) {
			continue
		}
		e.commit(en, bestNode, before, bestGain)
		moves++
	}
	// One final consistent solve + completion reschedule for whatever was
	// committed (rebuildAll alone does not move the Sim's event horizon).
	e.Sim.Refresh()
}

// commit actuates a move: applies the placement, rebuilds flows, starts
// the migration cost transfer, and logs the decision into the event trace.
func (e *Engine) commit(en *Entity, n *numa.Node, before placement, gain float64) {
	first := en.node == nil
	e.apply(en, n)
	e.rebuildAll()
	en.node = n
	en.lastMove = e.Eng.Now()
	if first && !en.moved {
		e.stats.Placements++
	} else {
		e.stats.Migrations++
	}
	en.moved = true
	verb := "migrate"
	if first {
		verb = "place"
	}
	e.Eng.Tracef("placer", "%s %s -> node%d welfare%+.4f", verb, en.Name, n.ID, gain)
	e.chargeMigration(en, n, before)
}

// chargeMigration models the page copy for a committed re-homing: the new
// node's cores read the old homes (crossing the interconnect) and write
// the new home (coherency invalidations included via the write charge).
// The one-shot transfer contends with the payload until the pages land.
func (e *Engine) chargeMigration(en *Entity, n *numa.Node, before placement) {
	if en.MigrateBytes <= 0 {
		return
	}
	moved := false
	oldHomes := make(map[*numa.Node]bool)
	for i, b := range en.Buffers {
		same := len(before.homes[i]) == len(b.Homes)
		if same {
			for j, h := range before.homes[i] {
				if b.Homes[j] != h {
					same = false
					break
				}
			}
		}
		if !same {
			moved = true
			for _, h := range before.homes[i] {
				oldHomes[h] = true
			}
		}
	}
	if !moved {
		return
	}
	e.migSeq++
	f := e.Sim.NewFlow(fmt.Sprintf("placer/migrate/%s#%d", en.Name, e.migSeq), math.Inf(1))
	// Iterate machine nodes (stable order), not the map.
	var srcs []*numa.Node
	for _, h := range en.M.Nodes {
		if oldHomes[h] {
			srcs = append(srcs, h)
		}
	}
	src := &numa.Buffer{Name: "placer/old/" + en.Name, Homes: srcs}
	dst := &numa.Buffer{Name: "placer/new/" + en.Name, Homes: []*numa.Node{n}}
	en.M.Charge(f, numa.Access{Buffer: src, From: n, BytesPerUnit: 1})
	en.M.Charge(f, numa.Access{Buffer: dst, From: n, BytesPerUnit: 1, Write: true})
	t := &fluid.Transfer{Flow: f, Remaining: en.MigrateBytes}
	name := en.Name
	t.OnComplete = func(now sim.Time) {
		e.Eng.Tracef("placer", "migrated %s bytes=%g", name, en.MigrateBytes)
	}
	e.Sim.Start(t)
}
