package xfersched

import (
	"fmt"
	"sort"

	"e2edt/internal/metrics"
	"e2edt/internal/sim"
	"e2edt/internal/units"
)

// TenantStats aggregates one tenant's outcomes.
type TenantStats struct {
	Name       string
	Weight     float64
	Jobs       int
	Done       int
	Lost       int
	Retries    int
	Recoveries int     // in-protocol stream recoveries (no requeue)
	Migrations int     // rail failovers (streams moved off dead rails)
	Failbacks  int     // streams returned to re-admitted rails
	Bytes      float64 // delivered bytes of finished jobs
	MeanWait   float64 // seconds
	Goodput    float64 // delivered bytes / summed service time
	Slowdown   float64 // mean elapsed/ideal over finished jobs
	Deadlines  int     // missed deadlines
}

// Report is the scheduler's end-of-run accounting.
type Report struct {
	Submitted, Completed, Lost int
	TotalRetries               int
	// TotalRecoveries counts in-protocol stream recoveries across all
	// jobs — faults the transfer layer absorbed without a scheduler
	// requeue. TotalRetransmitted is the payload volume those recoveries
	// re-sent.
	TotalRecoveries    int
	TotalRetransmitted float64
	// TotalMigrations and TotalFailbacks count rail failovers and
	// failbacks across all jobs — multipath repairs the transfer layer
	// made while the scheduler kept the job admitted.
	TotalMigrations int
	TotalFailbacks  int
	// Gray/tail-tolerance aggregates: hedged windows launched and won,
	// duplicate bytes hedging re-sent, and gray suspect verdicts.
	TotalHedges, TotalHedgeWins int
	TotalHedgeWaste             float64
	TotalSuspects               int
	MaxQueueLen                 int
	MeanWait, P99Wait           float64 // seconds
	MeanSlowdown                float64
	// AggregateGoodput is delivered bytes over the makespan (first submit
	// to last finish), the service's end-to-end rate.
	AggregateGoodput float64
	Makespan         float64 // seconds
	Tenants          []TenantStats
}

// Report computes the current aggregate accounting. It can be called
// mid-run; unfinished jobs count toward Submitted only.
func (s *Scheduler) Report() Report {
	r := Report{
		Submitted:   len(s.jobs),
		MaxQueueLen: s.MaxQueueLen,
		MeanWait:    s.WaitHist.Mean(),
		P99Wait:     s.WaitHist.Quantile(0.99),
	}
	byTenant := make(map[string]*TenantStats)
	order := make([]string, 0, len(s.tenants))
	for _, t := range s.tenants {
		byTenant[t.Name] = &TenantStats{Name: t.Name, Weight: t.Weight}
		order = append(order, t.Name)
	}
	sort.Strings(order)

	var firstSubmit, lastFinish sim.Time = sim.Forever, 0
	totalBytes := 0.0
	slowSum := 0.0
	slowN := 0
	for _, j := range s.jobs {
		ts := byTenant[j.Spec.Tenant]
		ts.Jobs++
		ts.Retries += j.Retries
		st := j.Stats()
		ts.Recoveries += st.Recoveries
		ts.Migrations += st.Migrations
		ts.Failbacks += st.Failbacks
		r.TotalRetries += j.Retries
		r.TotalRecoveries += st.Recoveries
		r.TotalRetransmitted += st.Retransmitted
		r.TotalMigrations += st.Migrations
		r.TotalFailbacks += st.Failbacks
		r.TotalHedges += st.Hedges
		r.TotalHedgeWins += st.HedgeWins
		r.TotalHedgeWaste += st.HedgeWaste
		r.TotalSuspects += j.GraySuspects()
		if j.Submitted < firstSubmit {
			firstSubmit = j.Submitted
		}
		switch j.State {
		case StateDone:
			r.Completed++
			ts.Done++
			ts.Bytes += float64(j.Spec.Bytes)
			totalBytes += float64(j.Spec.Bytes)
			if j.Finished > lastFinish {
				lastFinish = j.Finished
			}
			if sd := s.slowdown(j); sd == sd { // skip NaN
				slowSum += sd
				slowN++
				ts.Slowdown += sd
			}
			if j.DeadlineMissed {
				ts.Deadlines++
			}
		case StateLost:
			r.Lost++
			ts.Lost++
		}
	}
	if slowN > 0 {
		r.MeanSlowdown = slowSum / float64(slowN)
	}
	if lastFinish > firstSubmit {
		r.Makespan = float64(lastFinish - firstSubmit)
		r.AggregateGoodput = totalBytes / r.Makespan
	}
	for _, name := range order {
		ts := byTenant[name]
		waitSum, waitN := 0.0, 0
		serviceSum := 0.0
		for _, j := range s.jobs {
			if j.Spec.Tenant != name {
				continue
			}
			if j.FirstStart > 0 {
				waitSum += float64(j.Wait())
				waitN++
			}
			if j.State == StateDone && j.Finished > j.FirstStart {
				serviceSum += float64(j.Finished - j.FirstStart)
			}
		}
		if waitN > 0 {
			ts.MeanWait = waitSum / float64(waitN)
		}
		if serviceSum > 0 {
			ts.Goodput = ts.Bytes / serviceSum
		}
		if ts.Done > 0 {
			ts.Slowdown /= float64(ts.Done)
		}
		r.Tenants = append(r.Tenants, *ts)
	}
	return r
}

// TenantTable renders per-tenant outcomes as a metrics table.
func (r Report) TenantTable() *metrics.Table {
	t := &metrics.Table{
		Title: "Per-tenant outcomes",
		Headers: []string{"tenant", "weight", "jobs", "done", "lost", "retries",
			"recov", "migr", "failbk", "mean wait", "goodput", "slowdown", "missed ddl"},
	}
	for _, ts := range r.Tenants {
		t.AddRow(
			ts.Name,
			fmt.Sprintf("%.1f", ts.Weight),
			fmt.Sprintf("%d", ts.Jobs),
			fmt.Sprintf("%d", ts.Done),
			fmt.Sprintf("%d", ts.Lost),
			fmt.Sprintf("%d", ts.Retries),
			fmt.Sprintf("%d", ts.Recoveries),
			fmt.Sprintf("%d", ts.Migrations),
			fmt.Sprintf("%d", ts.Failbacks),
			fmt.Sprintf("%.2fs", ts.MeanWait),
			units.FormatRate(ts.Goodput),
			fmt.Sprintf("%.2f", ts.Slowdown),
			fmt.Sprintf("%d", ts.Deadlines),
		)
	}
	return t
}

// JobTable renders per-job outcomes as a metrics table, submission order.
func (s *Scheduler) JobTable() *metrics.Table {
	t := &metrics.Table{
		Title: "Per-job outcomes",
		Headers: []string{"job", "tenant", "proto", "size", "prio", "state",
			"wait", "elapsed", "goodput", "retries", "recov", "migr"},
	}
	for _, j := range s.jobs {
		st := j.Stats()
		elapsed, goodput := "-", "-"
		if j.Finished > 0 && j.State == StateDone {
			el := float64(j.Finished - j.Submitted)
			elapsed = fmt.Sprintf("%.2fs", el)
			if svc := float64(j.Finished - j.FirstStart); svc > 0 {
				goodput = units.FormatRate(float64(j.Spec.Bytes) / svc)
			}
		}
		t.AddRow(
			j.Spec.ID,
			j.Spec.Tenant,
			j.Spec.Protocol.String(),
			units.FormatBytes(j.Spec.Bytes),
			fmt.Sprintf("%d", j.Spec.Priority),
			j.State.String(),
			fmt.Sprintf("%.2fs", float64(j.Wait())),
			elapsed,
			goodput,
			fmt.Sprintf("%d", j.Retries),
			fmt.Sprintf("%d", st.Recoveries),
			fmt.Sprintf("%d", st.Migrations),
		)
	}
	return t
}

// GrayTable renders the gray/tail-tolerance aggregates.
func (r Report) GrayTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Gray failures & tail tolerance",
		Headers: []string{"suspect verdicts", "hedges", "hedge wins", "hedge waste"},
	}
	t.AddRow(
		fmt.Sprintf("%d", r.TotalSuspects),
		fmt.Sprintf("%d", r.TotalHedges),
		fmt.Sprintf("%d", r.TotalHedgeWins),
		units.FormatBytes(int64(r.TotalHedgeWaste)),
	)
	return t
}

// SummaryTable renders the run's aggregate line.
func (r Report) SummaryTable() *metrics.Table {
	t := &metrics.Table{
		Title: "Schedule summary",
		Headers: []string{"jobs", "done", "lost", "retries", "recov", "migr",
			"failbk", "max queue", "mean wait", "p99 wait", "slowdown", "goodput", "makespan"},
	}
	t.AddRow(
		fmt.Sprintf("%d", r.Submitted),
		fmt.Sprintf("%d", r.Completed),
		fmt.Sprintf("%d", r.Lost),
		fmt.Sprintf("%d", r.TotalRetries),
		fmt.Sprintf("%d", r.TotalRecoveries),
		fmt.Sprintf("%d", r.TotalMigrations),
		fmt.Sprintf("%d", r.TotalFailbacks),
		fmt.Sprintf("%d", r.MaxQueueLen),
		fmt.Sprintf("%.2fs", r.MeanWait),
		fmt.Sprintf("%.2fs", r.P99Wait),
		fmt.Sprintf("%.2f", r.MeanSlowdown),
		units.FormatRate(r.AggregateGoodput),
		fmt.Sprintf("%.1fs", r.Makespan),
	)
	return t
}
