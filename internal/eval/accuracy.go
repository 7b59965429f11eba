package eval

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/ids"
	"repro/internal/obs"
)

// AccuracyResult holds the Figure-3 accuracy observations for one run.
type AccuracyResult struct {
	Product     string
	Sensitivity float64

	// Transactions is |T|: background sessions plus attack incidents.
	Transactions int
	// ActualIncidents is |A|.
	ActualIncidents int
	// DetectedIncidents is how many actual incidents were matched by at
	// least one reported incident.
	DetectedIncidents int
	// FalseAlarms is the number of reported incidents matching no actual
	// incident.
	FalseAlarms int
	// ReportedIncidents is the total the monitor recorded.
	ReportedIncidents int

	// FalsePositiveRatio is |D−A|/|T| per Figure 3.
	FalsePositiveRatio float64
	// FalseNegativeRatio is |A−D|/|T| per Figure 3.
	FalseNegativeRatio float64
	// MissRate is |A−D|/|A| (the per-attack view used for scoring).
	MissRate float64
	// DetectionRate is 1−MissRate.
	DetectionRate float64

	// Timeliness. The percentiles are histogram-backed (see delayStats):
	// the same estimator the telemetry subsystem exports, computed from
	// detection delays on the sim clock.
	MeanDetectionDelay time.Duration
	MaxDetectionDelay  time.Duration
	DelayP50           time.Duration
	DelayP95           time.Duration
	DelayP99           time.Duration
	// DelayHist is the full detection-delay distribution (nil when
	// nothing was detected).
	DelayHist *obs.HistSnap

	// ByTechnique maps technique -> detected? for the report.
	ByTechnique map[string]bool

	// Response effectiveness observed during the run.
	FirewallBlocks  int
	RouterRedirects int
	SNMPTraps       int
	FilteredPackets uint64

	// Pipeline health.
	SensorDrops    uint64
	SensorFailures int
	StorageBytes   uint64
	IngestedBytes  uint64
	// Telemetry-grade pipeline quantities (see eval.Telemetry).
	TapDrops      uint64 // mirror-link losses (packets the IDS never saw)
	IngestedPkts  uint64
	ProcessedPkts uint64
	Notifications int
	// SensorBusy is summed engine processing time (sim clock), the
	// denominator of scan throughput.
	SensorBusy time.Duration

	// TruthIncidents retains the ground truth the run was scored
	// against, for downstream experiments (human dimension, reports).
	TruthIncidents []attack.Incident
	// Profiles is the analyzer's second-order per-attacker intent
	// analysis (Analysis of Intruder Intent capability).
	Profiles []*ids.AttackerProfile

	// Compromise bookkeeping for AnalyzeCompromise: cluster addresses
	// ground truth marks compromised, and those the product's reports
	// named.
	compromisedTruth map[uint32]bool
	compromisedFound map[uint32]bool
}

// matchWindow pads incident activity windows when matching reports.
const matchWindow = 6 * time.Second

// matches reports whether a reported incident plausibly refers to the
// ground-truth incident: endpoint overlap plus temporal overlap.
func matches(rep *ids.ReportedIncident, inc attack.Incident) bool {
	// Both endpoints must match, in either orientation: detectors that
	// alert on a response packet attribute the conversation reversed.
	// Multi-victim incidents (zero Victim, e.g. a ping sweep) match on
	// the attacker alone.
	var endpointHit bool
	if inc.Victim == 0 {
		endpointHit = rep.Attacker == inc.Attacker || rep.Victim == inc.Attacker
	} else {
		endpointHit = (rep.Attacker == inc.Attacker && rep.Victim == inc.Victim) ||
			(rep.Attacker == inc.Victim && rep.Victim == inc.Attacker)
	}
	if !endpointHit {
		return false
	}
	start := inc.Start - time.Second
	end := inc.Start + inc.Duration + matchWindow
	return rep.FirstAlert <= end && rep.LastAlert >= start
}

// RunAccuracy performs one full accuracy experiment: train on clean
// traffic, then run background plus the standard campaign for attackFor,
// then match monitor incidents against ground truth.
func RunAccuracy(tb *Testbed, sensitivity float64, attackFor time.Duration, strength attack.Intensity) (*AccuracyResult, error) {
	return runCampaign(tb, sensitivity, attackFor, strength, nil)
}

// runCampaign is the live experiment RunAccuracy and RunFaultScenario
// share: the standard campaign spread across attackFor over live
// background, with |T| = background sessions + incidents. arm, when
// non-nil, runs at the start of the attack phase, before the campaign
// is scheduled.
func runCampaign(tb *Testbed, sensitivity float64, attackFor time.Duration, strength attack.Intensity, arm func() error) (*AccuracyResult, error) {
	var camp *attack.Campaign
	err := runPhases(tb, sensitivity, func(start time.Duration) (time.Duration, error) {
		if arm != nil {
			if err := arm(); err != nil {
				return 0, err
			}
		}
		camp = attack.NewCampaign(tb.AttackContext())
		return attackFor, camp.SpreadAcross(start+2*time.Second, attackFor-4*time.Second, attack.StandardScenarios(strength))
	})
	if err != nil {
		return nil, err
	}
	truth := camp.Incidents()
	res, err := scoreAccuracy(tb, sensitivity, truth, int(tb.Gen.SessionsStarted)+len(truth))
	if err != nil {
		return nil, err
	}
	res.IngestedBytes = tb.Gen.BytesEmitted
	return res, nil
}

// runPhases is the one accuracy experiment every run shares, live, fault
// or trace: train on clean background, set the sensitivity, let schedule
// arm the measured workload at the start of the measured phase, run it
// for the duration schedule returns (zero goes straight to the drain: a
// replay has scheduled every packet it sends), drain, check for
// interruption, and flush the pipeline so every report reaches the
// monitor.
func runPhases(tb *Testbed, sensitivity float64, schedule func(start time.Duration) (time.Duration, error)) error {
	if err := validateTapMode(tb.Cfg.Tap); err != nil {
		return err
	}
	if err := tb.Train(); err != nil {
		return err
	}
	if err := tb.IDS.SetSensitivity(sensitivity); err != nil {
		return err
	}
	start := tb.Sim.Now()
	runFor, err := schedule(start)
	if err != nil {
		return err
	}
	if runFor > 0 {
		tb.Sim.RunUntil(start + runFor)
	}
	tb.Drain()
	if err := tb.Interrupted(); err != nil {
		return err
	}
	tb.IDS.Flush()
	return nil
}

// scoreAccuracy is the one Figure-3 scorer: it matches the monitor's
// reports against truth and computes the ratios over transactions (|T|,
// which the caller counts: live sessions or trace conversations, plus
// incidents).
func scoreAccuracy(tb *Testbed, sensitivity float64, truth []attack.Incident, transactions int) (*AccuracyResult, error) {
	reports := tb.IDS.Monitor().Incidents

	res := &AccuracyResult{
		Product:           tb.Spec.Name,
		Sensitivity:       sensitivity,
		ActualIncidents:   len(truth),
		ReportedIncidents: len(reports),
		ByTechnique:       make(map[string]bool),
		Transactions:      transactions,
		TruthIncidents:    truth,
		compromisedTruth:  make(map[uint32]bool),
		compromisedFound:  make(map[uint32]bool),
	}
	if res.Transactions == 0 {
		return nil, fmt.Errorf("eval: empty run — no transactions")
	}

	matchedReport := make(map[*ids.ReportedIncident]bool)
	var delays []time.Duration
	for _, inc := range truth {
		compromise := inc.Technique == attack.TechInsider || inc.Technique == attack.TechMasquerade
		if compromise {
			if inc.Technique == attack.TechInsider {
				res.compromisedTruth[uint32(inc.Attacker)] = true
			}
			res.compromisedTruth[uint32(inc.Victim)] = true
		}
		detected := false
		var firstReport time.Duration = -1
		for _, rep := range reports {
			if matches(rep, inc) {
				matchedReport[rep] = true
				detected = true
				if firstReport < 0 || rep.ReportedAt < firstReport {
					firstReport = rep.ReportedAt
				}
				if compromise {
					for _, a := range []uint32{uint32(rep.Attacker), uint32(rep.Victim)} {
						if res.compromisedTruth[a] {
							res.compromisedFound[a] = true
						}
					}
				}
			}
		}
		res.ByTechnique[inc.Technique] = res.ByTechnique[inc.Technique] || detected
		if detected {
			res.DetectedIncidents++
			delay := firstReport - inc.Start
			if delay < 0 {
				delay = 0
			}
			delays = append(delays, delay)
		}
	}
	for _, rep := range reports {
		if !matchedReport[rep] {
			res.FalseAlarms++
		}
	}

	missed := res.ActualIncidents - res.DetectedIncidents
	res.FalsePositiveRatio = float64(res.FalseAlarms) / float64(res.Transactions)
	res.FalseNegativeRatio = float64(missed) / float64(res.Transactions)
	if res.ActualIncidents > 0 {
		res.MissRate = float64(missed) / float64(res.ActualIncidents)
		res.DetectionRate = 1 - res.MissRate
	}
	if len(delays) > 0 {
		var sum time.Duration
		for _, d := range delays {
			sum += d
			if d > res.MaxDetectionDelay {
				res.MaxDetectionDelay = d
			}
		}
		res.MeanDetectionDelay = sum / time.Duration(len(delays))
	}
	res.DelayP50, res.DelayP95, res.DelayP99, res.DelayHist = delayStats(delays)

	if c := tb.IDS.Console(); c != nil {
		res.FirewallBlocks = len(c.Firewall.BlockEvents)
		res.RouterRedirects = len(c.Redirects)
		res.SNMPTraps = len(c.SNMPTraps)
		res.FilteredPackets = c.Firewall.FilteredPackets
	}
	st := tb.IDS.Stats()
	res.SensorDrops = st.SensorDropped
	res.SensorFailures = st.SensorFailures
	res.StorageBytes = st.StorageBytes
	res.TapDrops = tb.MirrorDrops()
	res.IngestedPkts = st.Ingested
	res.ProcessedPkts = st.Processed
	res.Notifications = st.Notifications
	res.SensorBusy = st.SensorBusy
	res.Profiles = tb.IDS.Monitor().IntentReport()
	return res, nil
}

// Techniques returns the run's technique outcomes sorted by name.
func (r *AccuracyResult) Techniques() []string {
	out := make([]string, 0, len(r.ByTechnique))
	for t := range r.ByTechnique {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
