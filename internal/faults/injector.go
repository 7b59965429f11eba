package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Targets binds a scenario's symbolic names to the live components of
// one evaluation run. The harness holds references the components never
// see: injection is invisible to the instrumented system.
type Targets struct {
	// Links maps scenario link names ("span", "lan-trunk", "ext-trunk")
	// to live links.
	Links map[string]*netsim.Link
	// IDS is the product under test.
	IDS *ids.IDS
	// Flight, when non-nil, receives a timeline event as each fault
	// onset fires. The injector wraps its existing onset closures rather
	// than scheduling anything new, so the simulation's event count and
	// order — and therefore its results — are identical with or without
	// a recorder.
	Flight *obs.FlightRecorder
}

// Applied records one scheduled fault application for the run report.
type Applied struct {
	Kind, Target string
	// At/Until are offsets from the injection origin; Until is zero for
	// instantaneous faults (sensor-crash).
	At, Until time.Duration
	// Effective is the severity actually applied after sweep scaling.
	Effective float64
}

// Injector schedules a scenario's events onto the simulation clock.
type Injector struct {
	sim      *simtime.Sim
	scenario *Scenario
	severity float64
	targets  Targets

	// Applied lists every fault scheduled by Arm, in event order.
	Applied []Applied
}

// NewInjector validates the scenario against the run's targets and
// prepares an injector scaling event intensities by severity in [0,1].
// Severity scaling is the degradation-curve knob: continuous faults
// scale magnitude (bandwidth derate, loss fraction, slowdown), windowed
// binary faults scale their active duration — both weakly monotone in
// severity.
func NewInjector(sim *simtime.Sim, sc *Scenario, severity float64, tg Targets) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(severity) || severity < 0 || severity > 1 {
		return nil, fmt.Errorf("faults: severity %v outside [0,1]", severity)
	}
	inj := &Injector{sim: sim, scenario: sc, severity: severity, targets: tg}
	if sc.Empty() {
		return inj, nil
	}
	// Resolve every target eagerly so misaddressed scenarios fail at
	// build time, not mid-run.
	for i, ev := range sc.Events {
		var err error
		switch {
		case strings.HasPrefix(ev.Target, "link:"):
			_, err = inj.link(ev.Target)
		case strings.HasPrefix(ev.Target, "sensor:"):
			_, err = inj.sensors(ev.Target)
		case strings.HasPrefix(ev.Target, "analyzer:"):
			_, err = inj.analyzers(ev.Target)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: %s event %d: %w", sc.Name, i, err)
		}
	}
	return inj, nil
}

func (inj *Injector) link(target string) (*netsim.Link, error) {
	name := strings.TrimPrefix(target, "link:")
	l, ok := inj.targets.Links[name]
	if !ok || l == nil {
		known := make([]string, 0, len(inj.targets.Links))
		for k := range inj.targets.Links {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("unknown link %q (have: %s)", name, strings.Join(known, ", "))
	}
	return l, nil
}

func (inj *Injector) sensors(target string) ([]*ids.Sensor, error) {
	pool := inj.targets.IDS.Sensors()
	idx := strings.TrimPrefix(target, "sensor:")
	if idx == "*" {
		return pool, nil
	}
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= len(pool) {
		return nil, fmt.Errorf("sensor index %q outside 0..%d", idx, len(pool)-1)
	}
	return pool[i : i+1], nil
}

func (inj *Injector) analyzers(target string) ([]*ids.Analyzer, error) {
	pool := inj.targets.IDS.Analyzers()
	idx := strings.TrimPrefix(target, "analyzer:")
	if idx == "*" {
		return pool, nil
	}
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= len(pool) {
		return nil, fmt.Errorf("analyzer index %q outside 0..%d", idx, len(pool)-1)
	}
	return pool[i : i+1], nil
}

// effective scales an event's baseline severity by the run knob.
func (inj *Injector) effective(ev Event) float64 {
	base := ev.Severity
	if base == 0 {
		base = 1
	}
	eff := base * inj.severity
	if eff < 0 {
		return 0
	}
	if eff > 1 {
		return 1
	}
	return eff
}

// onset wraps a fault's onset closure so its firing lands on the
// flight-recorder timeline (kind:target, sim time, severity in
// permille). With no recorder wired the closure passes through
// untouched: the wrapper never schedules anything of its own, so event
// count, order, and results are identical either way.
func (inj *Injector) onset(ev Event, eff float64, fn func()) func() {
	f := inj.targets.Flight
	if f == nil {
		return fn
	}
	name := ev.Kind + ":" + ev.Target
	permille := int64(eff * 1000)
	return func() {
		f.Record(obs.FlightFaultInject, -1, int64(inj.sim.Now()), permille, name)
		fn()
	}
}

// Arm schedules every event relative to the current simulation time (the
// injection origin — typically the start of the attack phase). Events
// with zero effective severity schedule nothing, so a severity-0 run is
// event-for-event identical to a no-faults run.
func (inj *Injector) Arm() error {
	if inj.scenario.Empty() {
		return nil
	}
	for _, ev := range inj.scenario.Events {
		eff := inj.effective(ev)
		if eff == 0 {
			continue
		}
		if err := inj.armEvent(ev, eff); err != nil {
			return err
		}
	}
	return nil
}

func (inj *Injector) armEvent(ev Event, eff float64) error {
	at := ev.At.Std()
	dur := ev.Duration.Std()
	// Windowed binary faults scale duration; continuous faults keep the
	// full window and scale magnitude.
	scaledDur := time.Duration(float64(dur) * eff)
	rec := Applied{Kind: ev.Kind, Target: ev.Target, At: at, Effective: eff}

	switch ev.Kind {
	case KindLinkDegrade:
		l, err := inj.link(ev.Target)
		if err != nil {
			return err
		}
		scale := 1 - 0.95*eff
		inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { l.SetBandwidthScale(scale) }))
		inj.sim.MustSchedule(at+dur, func() { l.SetBandwidthScale(0) })
		rec.Until = at + dur

	case KindLinkLoss:
		l, err := inj.link(ev.Target)
		if err != nil {
			return err
		}
		every := int(math.Round(1 / eff))
		if every < 1 {
			every = 1
		}
		inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { l.SetLossEvery(every) }))
		inj.sim.MustSchedule(at+dur, func() { l.SetLossEvery(0) })
		rec.Until = at + dur

	case KindLinkPartition:
		l, err := inj.link(ev.Target)
		if err != nil {
			return err
		}
		inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { l.SetDown(true) }))
		inj.sim.MustSchedule(at+scaledDur, func() { l.SetDown(false) })
		rec.Until = at + scaledDur

	case KindLinkFlap:
		l, err := inj.link(ev.Target)
		if err != nil {
			return err
		}
		period := ev.Period.Std()
		if period <= 0 {
			period = 2 * time.Second
		}
		// Each cycle is down for period×eff then up for the remainder.
		downFor := time.Duration(float64(period) * eff)
		for t := at; t < at+dur; t += period {
			start, end := t, t+downFor
			if end > at+dur {
				end = at + dur
			}
			inj.sim.MustSchedule(start, inj.onset(ev, eff, func() { l.SetDown(true) }))
			inj.sim.MustSchedule(end, func() { l.SetDown(false) })
		}
		rec.Until = at + dur

	case KindSensorCrash:
		pool, err := inj.sensors(ev.Target)
		if err != nil {
			return err
		}
		for _, sn := range pool {
			sn := sn
			inj.sim.MustSchedule(at, inj.onset(ev, eff, sn.InjectCrash))
		}

	case KindSensorHang:
		pool, err := inj.sensors(ev.Target)
		if err != nil {
			return err
		}
		for _, sn := range pool {
			sn := sn
			inj.sim.MustSchedule(at, inj.onset(ev, eff, sn.InjectHang))
			inj.sim.MustSchedule(at+scaledDur, sn.InjectRecover)
		}
		rec.Until = at + scaledDur

	case KindSensorSlow:
		pool, err := inj.sensors(ev.Target)
		if err != nil {
			return err
		}
		scale := 1 - 0.9*eff
		for _, sn := range pool {
			sn := sn
			inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { sn.InjectSlowdown(scale) }))
			inj.sim.MustSchedule(at+dur, func() { sn.InjectSlowdown(0) })
		}
		rec.Until = at + dur

	case KindAnalyzerStall:
		pool, err := inj.analyzers(ev.Target)
		if err != nil {
			return err
		}
		for _, an := range pool {
			an := an
			inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { an.SetStalled(true) }))
			inj.sim.MustSchedule(at+scaledDur, func() { an.SetStalled(false) })
		}
		rec.Until = at + scaledDur

	case KindAlertLoss:
		s := inj.targets.IDS
		inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { s.SetAlertLoss(true) }))
		inj.sim.MustSchedule(at+scaledDur, func() { s.SetAlertLoss(false) })
		rec.Until = at + scaledDur

	case KindMgmtOutage:
		m := inj.targets.IDS.Monitor()
		inj.sim.MustSchedule(at, inj.onset(ev, eff, func() { m.SetMgmtOutage(true) }))
		inj.sim.MustSchedule(at+scaledDur, func() { m.SetMgmtOutage(false) })
		rec.Until = at + scaledDur

	default:
		return fmt.Errorf("faults: unhandled kind %q", ev.Kind)
	}
	inj.Applied = append(inj.Applied, rec)
	return nil
}
