package experiment

import (
	"fmt"
	"sort"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/radio"
)

// Arm is one named scenario inside a figure.
type Arm struct {
	Label    string
	Scenario Scenario
}

// Pair names an attack-free/attacked arm pair whose relative reception
// drop is the figure's γ (inter-area) or λ (intra-area).
type Pair struct {
	Label    string
	Free     string // arm label of the baseline
	Attacked string // arm label of the attacked/mitigated scenario
	// PaperDrop is the drop the paper reports for this pair (fraction),
	// or a negative value when the paper gives no number.
	PaperDrop float64
}

// Figure is a runnable reproduction of one of the paper's plots.
type Figure struct {
	ID    string
	Title string
	Arms  []Arm
	Pairs []Pair
}

// FigureResult carries everything needed to print the figure's series
// and compare against the paper.
type FigureResult struct {
	Figure   Figure
	BinWidth time.Duration
	// Runs is the number of seeded repetitions per arm.
	Runs int
	// Rates are the per-bin reception rates of each arm.
	Rates map[string][]float64
	// Overall is each arm's overall reception rate.
	Overall map[string]float64
	// ArmSpread is the per-run dispersion of each arm's overall rate.
	ArmSpread map[string]metrics.Spread
	// Packets counts generated packets per arm across all runs.
	Packets map[string]int
	// Attacker aggregates the attacker counters per arm (zero for
	// attack-free arms).
	Attacker map[string]attack.Stats
	// Drops are the measured γ/λ per pair label.
	Drops map[string]float64
	// DropSpread is the seed-paired per-run dispersion of each pair's
	// drop rate.
	DropSpread map[string]metrics.Spread
	// AccumDrops are the running γ/λ per pair label (Figs 8 and 10).
	AccumDrops map[string][]float64
	// Protocol aggregates the GeoNetworking counters per arm across all
	// runs — the per-reason drop rollup of the whole arm.
	Protocol map[string]geonet.Stats
	// LatencyMean is each arm's mean first-delivery end-to-end latency in
	// seconds (0 when the arm delivered nothing).
	LatencyMean map[string]float64
}

// attackFor maps a workload to its attack type.
func attackFor(w Workload) attack.Type {
	if w == IntraArea {
		return attack.IntraArea
	}
	return attack.InterArea
}

// rangeArms builds matched af/atk arm pairs for a set of attack ranges.
// For InterArea workloads the attack-free arm depends on the attack range
// (it shapes the vulnerable-packet population), so each range gets its
// own baseline; for IntraArea a single shared baseline suffices but the
// per-range baseline keeps the structure uniform.
func rangeArms(base Scenario, ranges map[string]float64) ([]Arm, []Pair) {
	labels := make([]string, 0, len(ranges))
	for l := range ranges {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var arms []Arm
	var pairs []Pair
	for _, l := range labels {
		s := base
		s.AttackRange = ranges[l]
		s.AttackMode = attackFor(s.Workload)
		arms = append(arms,
			Arm{Label: "af_" + l, Scenario: s.withoutAttack()},
			Arm{Label: "atk_" + l, Scenario: s},
		)
		pairs = append(pairs, Pair{Label: l, Free: "af_" + l, Attacked: "atk_" + l, PaperDrop: -1})
	}
	return arms, pairs
}

// rangesOf returns the three Table II range labels for a technology.
func rangesOf(t radio.Technology) map[string]float64 {
	return map[string]float64{
		"wN": radio.Range(t, radio.NLoSWorst),
		"mN": radio.Range(t, radio.NLoSMedian),
		"mL": radio.Range(t, radio.LoSMedian),
	}
}

func setPaperDrops(pairs []Pair, drops map[string]float64) {
	for i := range pairs {
		if d, ok := drops[pairs[i].Label]; ok {
			pairs[i].PaperDrop = d
		}
	}
}

// Figures returns the full registry of reproducible experiments, keyed by
// ID. Each figure's pairs carry the paper-reported drop rates so the
// harness can print paper-vs-measured tables.
func Figures() map[string]Figure {
	figs := make(map[string]Figure)
	add := func(f Figure) { figs[f.ID] = f }

	// ---- Figure 7: inter-area interception effectiveness ----
	{
		base := Default()
		arms, pairs := rangeArms(base, rangesOf(radio.DSRC))
		setPaperDrops(pairs, map[string]float64{"wN": 0.468, "mN": 0.999, "mL": 0.999})
		add(Figure{ID: "fig7a", Title: "Inter-area interception vs attack range (DSRC)", Arms: arms, Pairs: pairs})
	}
	{
		base := Default()
		base.Tech = radio.CV2X
		arms, pairs := rangeArms(base, rangesOf(radio.CV2X))
		setPaperDrops(pairs, map[string]float64{"wN": 0.352, "mN": 1.0, "mL": 1.0})
		add(Figure{ID: "fig7b", Title: "Inter-area interception vs attack range (C-V2X)", Arms: arms, Pairs: pairs})
	}
	{
		var arms []Arm
		var pairs []Pair
		for _, ttl := range []time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second} {
			s := Default()
			s.LocTTTL = ttl
			s.AttackMode = attack.InterArea
			label := fmt.Sprintf("wN_ttl%ds", int(ttl.Seconds()))
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		// The dotted line: a median-NLoS attacker defeats even the 5 s TTL.
		s := Default()
		s.LocTTTL = 5 * time.Second
		s.AttackMode = attack.InterArea
		s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
		arms = append(arms,
			Arm{Label: "af_mN_ttl5s", Scenario: s.withoutAttack()},
			Arm{Label: "atk_mN_ttl5s", Scenario: s},
		)
		pairs = append(pairs, Pair{Label: "mN_ttl5s", Free: "af_mN_ttl5s", Attacked: "atk_mN_ttl5s", PaperDrop: 0.979})
		setPaperDrops(pairs, map[string]float64{"wN_ttl20s": 0.468, "wN_ttl10s": 0.462, "wN_ttl5s": 0.374})
		add(Figure{ID: "fig7c", Title: "Inter-area interception vs LocTE TTL (DSRC, wN attacker)", Arms: arms, Pairs: pairs})
	}
	{
		var arms []Arm
		var pairs []Pair
		for _, sp := range []float64{30, 100, 300} {
			s := Default()
			s.Spacing = sp
			s.AttackMode = attack.InterArea
			label := fmt.Sprintf("wN_i%dm", int(sp))
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		setPaperDrops(pairs, map[string]float64{"wN_i30m": 0.468, "wN_i100m": 0.478, "wN_i300m": 0.447})
		add(Figure{ID: "fig7d", Title: "Inter-area interception vs inter-vehicle space (DSRC, wN attacker)", Arms: arms, Pairs: pairs})
	}
	{
		var arms []Arm
		var pairs []Pair
		for _, twoWay := range []bool{false, true} {
			s := Default()
			s.TwoWay = twoWay
			s.AttackMode = attack.InterArea
			label := "wN_oneway"
			if twoWay {
				label = "wN_twoway"
			}
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		setPaperDrops(pairs, map[string]float64{"wN_oneway": 0.468, "wN_twoway": 0.583})
		add(Figure{ID: "fig7e", Title: "Inter-area interception vs road directions (DSRC, wN attacker)", Arms: arms, Pairs: pairs})
	}

	// ---- Figure 8: accumulated interception over time (DSRC) ----
	{
		var arms []Arm
		var pairs []Pair
		variant := func(label string, mutate func(*Scenario), paper float64) {
			s := Default()
			s.AttackMode = attack.InterArea
			mutate(&s)
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: paper})
		}
		variant("wN_dflt", func(*Scenario) {}, 0.468)
		variant("mL_dflt", func(s *Scenario) { s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian) }, 0.999)
		variant("mN_ttl5", func(s *Scenario) {
			s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			s.LocTTTL = 5 * time.Second
		}, 0.979)
		variant("wN_ttl5", func(s *Scenario) { s.LocTTTL = 5 * time.Second }, 0.374)
		variant("wN_i300", func(s *Scenario) { s.Spacing = 300 }, 0.447)
		variant("wN_2way", func(s *Scenario) { s.TwoWay = true }, 0.583)
		add(Figure{ID: "fig8", Title: "Accumulated inter-area interception rate over time (DSRC)", Arms: arms, Pairs: pairs})
	}

	// ---- Figure 9: intra-area blockage effectiveness ----
	intraBase := func() Scenario {
		s := Default()
		s.Workload = IntraArea
		s.Drain = 10 * time.Second // CBF settles in milliseconds
		return s
	}
	{
		arms, pairs := rangeArms(intraBase(), rangesOf(radio.DSRC))
		setPaperDrops(pairs, map[string]float64{"mN": 0.385})
		add(Figure{ID: "fig9a", Title: "Intra-area blockage vs attack range (DSRC)", Arms: arms, Pairs: pairs})
	}
	{
		base := intraBase()
		base.Tech = radio.CV2X
		arms, pairs := rangeArms(base, rangesOf(radio.CV2X))
		setPaperDrops(pairs, map[string]float64{"mN": 0.358})
		add(Figure{ID: "fig9b", Title: "Intra-area blockage vs attack range (C-V2X)", Arms: arms, Pairs: pairs})
	}
	{
		var arms []Arm
		var pairs []Pair
		for _, ttl := range []time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second} {
			s := intraBase()
			s.LocTTTL = ttl
			s.AttackMode = attack.IntraArea
			s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			label := fmt.Sprintf("mN_ttl%ds", int(ttl.Seconds()))
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		setPaperDrops(pairs, map[string]float64{"mN_ttl20s": 0.385, "mN_ttl10s": 0.382, "mN_ttl5s": 0.379})
		add(Figure{ID: "fig9c", Title: "Intra-area blockage vs LocTE TTL (DSRC, mN attacker)", Arms: arms, Pairs: pairs})
	}
	{
		var arms []Arm
		var pairs []Pair
		for _, sp := range []float64{30, 100, 300} {
			s := intraBase()
			s.Spacing = sp
			s.AttackMode = attack.IntraArea
			s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			label := fmt.Sprintf("mN_i%dm", int(sp))
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: 0.38})
		}
		add(Figure{ID: "fig9d", Title: "Intra-area blockage vs inter-vehicle space (DSRC, mN attacker)", Arms: arms, Pairs: pairs})
	}
	{
		var arms []Arm
		var pairs []Pair
		for _, twoWay := range []bool{false, true} {
			s := intraBase()
			s.TwoWay = twoWay
			s.AttackMode = attack.IntraArea
			s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			label := "mN_oneway"
			if twoWay {
				label = "mN_twoway"
			}
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		setPaperDrops(pairs, map[string]float64{"mN_oneway": 0.385, "mN_twoway": 0.38})
		add(Figure{ID: "fig9e", Title: "Intra-area blockage vs road directions (DSRC, mN attacker)", Arms: arms, Pairs: pairs})
	}
	{
		// §IV-A text: sweeping the attack range shows ~500 m is optimal
		// against 486 m DSRC vehicles; larger ranges deliver the replay to
		// too many first-time receivers.
		var arms []Arm
		var pairs []Pair
		for _, r := range []float64{327, 400, 500, 600, 800, 1283} {
			s := intraBase()
			s.AttackMode = attack.IntraArea
			s.AttackRange = r
			label := fmt.Sprintf("r%dm", int(r))
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		add(Figure{ID: "fig9-range-sweep", Title: "Intra-area blockage vs attack range sweep (DSRC; paper: 500 m optimal)", Arms: arms, Pairs: pairs})
	}

	// ---- Figure 10: accumulated blockage over time (DSRC) ----
	{
		var arms []Arm
		var pairs []Pair
		variant := func(label string, mutate func(*Scenario), paper float64) {
			s := intraBase()
			s.AttackMode = attack.IntraArea
			s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			mutate(&s)
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: paper})
		}
		variant("mN_dflt", func(*Scenario) {}, 0.385)
		variant("wN_dflt", func(s *Scenario) { s.AttackRange = radio.Range(radio.DSRC, radio.NLoSWorst) }, -1)
		variant("mN_ttl5", func(s *Scenario) { s.LocTTTL = 5 * time.Second }, 0.379)
		variant("mN_i300", func(s *Scenario) { s.Spacing = 300 }, 0.38)
		variant("mN_2way", func(s *Scenario) { s.TwoWay = true }, 0.38)
		add(Figure{ID: "fig10", Title: "Accumulated intra-area blockage rate over time (DSRC)", Arms: arms, Pairs: pairs})
	}

	// ---- Figure 14: mitigation effectiveness ----
	{
		// 14a: plausibility check under the inter-area attack. For each
		// attack range: attacked arm without and with the check, plus the
		// attack-free baselines with and without the check.
		var arms []Arm
		var pairs []Pair
		for label, r := range rangesOf(radio.DSRC) {
			s := Default()
			s.AttackMode = attack.InterArea
			s.AttackRange = r
			m := s
			m.PlausibilityThreshold = radio.Range(radio.DSRC, radio.NLoSMedian)
			arms = append(arms,
				Arm{Label: "atk_" + label, Scenario: s},
				Arm{Label: "mit_" + label, Scenario: m},
			)
			// DropRate(free=mitigated, attacked=unmitigated) measures the
			// reception the mitigation restores.
			pairs = append(pairs, Pair{Label: label + "_gain", Free: "mit_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		af := Default()
		afm := af
		afm.PlausibilityThreshold = radio.Range(radio.DSRC, radio.NLoSMedian)
		arms = append(arms,
			Arm{Label: "af", Scenario: af},
			Arm{Label: "af_check", Scenario: afm},
		)
		pairs = append(pairs, Pair{Label: "af_gain", Free: "af_check", Attacked: "af", PaperDrop: -1})
		sort.Slice(arms, func(i, j int) bool { return arms[i].Label < arms[j].Label })
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].Label < pairs[j].Label })
		add(Figure{ID: "fig14a", Title: "Plausibility-check mitigation vs inter-area interception (DSRC)", Arms: arms, Pairs: pairs})
	}
	{
		// 14b: RHL-drop check under the intra-area attack for wN and mN
		// attackers, plus the attack-free reference.
		var arms []Arm
		var pairs []Pair
		for _, label := range []string{"wN", "mN"} {
			s := intraBase()
			s.AttackMode = attack.IntraArea
			s.AttackRange = rangesOf(radio.DSRC)[label]
			m := s
			m.RHLMaxDrop = 3
			arms = append(arms,
				Arm{Label: "atk_" + label, Scenario: s},
				Arm{Label: "mit_" + label, Scenario: m},
			)
			pairs = append(pairs, Pair{Label: label + "_gain", Free: "mit_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		af := intraBase()
		arms = append(arms, Arm{Label: "af", Scenario: af})
		for _, label := range []string{"wN", "mN"} {
			pairs = append(pairs, Pair{Label: label + "_residual", Free: "af", Attacked: "mit_" + label, PaperDrop: 0})
		}
		add(Figure{ID: "fig14b", Title: "RHL-drop-check mitigation vs intra-area blockage (DSRC)", Arms: arms, Pairs: pairs})
	}

	// ---- Ablations (DESIGN.md) ----
	{
		// Neighbor-lifetime ablation: the literal standard keeps silent
		// stations GF-eligible for the full LocT TTL, which recovers the
		// paper's TTL trend at the cost of a much weaker attack-free
		// baseline (stale "ghost" entries poison GF's argmin).
		var arms []Arm
		var pairs []Pair
		for _, ttl := range []time.Duration{20 * time.Second, 5 * time.Second} {
			s := Default()
			s.LocTTTL = ttl
			s.NeighborLifetime = ttl // >= TTL: literal standard
			s.AttackMode = attack.InterArea
			label := fmt.Sprintf("strict_ttl%ds", int(ttl.Seconds()))
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		add(Figure{ID: "ablation-neighbor-ttl", Title: "Ablation: IS_NEIGHBOUR lifetime = full LocT TTL (literal standard)", Arms: arms, Pairs: pairs})
	}
	{
		// Soft-edge radio ablation: both attacks under probabilistic
		// boundary reception instead of the hard unit disk.
		var arms []Arm
		var pairs []Pair
		gf := Default()
		gf.RadioEdgeFactor = 1.15
		gf.AttackMode = attack.InterArea
		arms = append(arms,
			Arm{Label: "af_gf_soft", Scenario: gf.withoutAttack()},
			Arm{Label: "atk_gf_soft", Scenario: gf},
		)
		pairs = append(pairs, Pair{Label: "gf_soft", Free: "af_gf_soft", Attacked: "atk_gf_soft", PaperDrop: -1})
		cbf := Default()
		cbf.Workload = IntraArea
		cbf.Drain = 10 * time.Second
		cbf.RadioEdgeFactor = 1.15
		cbf.AttackMode = attack.IntraArea
		cbf.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
		arms = append(arms,
			Arm{Label: "af_cbf_soft", Scenario: cbf.withoutAttack()},
			Arm{Label: "atk_cbf_soft", Scenario: cbf},
		)
		pairs = append(pairs, Pair{Label: "cbf_soft", Free: "af_cbf_soft", Attacked: "atk_cbf_soft", PaperDrop: -1})
		add(Figure{ID: "ablation-soft-edge", Title: "Ablation: probabilistic soft-edge reception", Arms: arms, Pairs: pairs})
	}
	{
		// Attacker-speed ablation: a slow attacker misses the TO_MIN
		// contention window and the blockage attack decays.
		var arms []Arm
		var pairs []Pair
		for _, d := range []time.Duration{300 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond} {
			s := Default()
			s.Workload = IntraArea
			s.Drain = 10 * time.Second
			s.AttackMode = attack.IntraArea
			s.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			s.AttackerDelay = d
			label := fmt.Sprintf("delay%dus", d.Microseconds())
			arms = append(arms,
				Arm{Label: "af_" + label, Scenario: s.withoutAttack()},
				Arm{Label: "atk_" + label, Scenario: s},
			)
			pairs = append(pairs, Pair{Label: label, Free: "af_" + label, Attacked: "atk_" + label, PaperDrop: -1})
		}
		add(Figure{ID: "ablation-attacker-delay", Title: "Ablation: attacker capture-to-replay latency vs blockage rate", Arms: arms, Pairs: pairs})
	}

	// ---- Forwarder arena tournaments ----
	{
		// One cell block per registered strategy: attack-free and attacked
		// arms under both of the paper's attacks, scored on delivery,
		// overhead, latency and attack-delta by the campaign aggregator.
		var arms []Arm
		var pairs []Pair
		for _, name := range TournamentStrategies() {
			inter := Default()
			inter.Forwarder = name
			inter.Duration = 60 * time.Second
			intra := inter
			intra.Workload = IntraArea
			intra.Drain = 10 * time.Second
			intra.AttackRange = radio.Range(radio.DSRC, radio.NLoSMedian)
			arms = append(arms,
				Arm{Label: "af_inter_" + name, Scenario: inter},
				Arm{Label: "hijack_" + name, Scenario: inter.withAttack(attack.InterArea)},
				Arm{Label: "af_intra_" + name, Scenario: intra},
				Arm{Label: "echo_" + name, Scenario: intra.withAttack(attack.IntraArea)},
			)
			pairs = append(pairs,
				Pair{Label: "hijack_" + name, Free: "af_inter_" + name, Attacked: "hijack_" + name, PaperDrop: -1},
				Pair{Label: "echo_" + name, Free: "af_intra_" + name, Attacked: "echo_" + name, PaperDrop: -1},
			)
		}
		add(Figure{ID: "tournament", Title: "Forwarder arena: delivery, overhead, latency and attack resilience per strategy", Arms: arms, Pairs: pairs})
	}
	{
		// The designed local-minimum detour (see LocalMinLayout): greedy
		// strands every packet at the dead end; perimeter recovery walks
		// around it. The drain outlives the packet lifetime so stranded
		// buffers show up as GFExpired, not as in-flight state.
		var arms []Arm
		for _, name := range TournamentStrategies() {
			s := Default()
			s.Forwarder = name
			s.Topology = TopoLocalMin
			s.Duration = 30 * time.Second
			s.Drain = 60 * time.Second
			arms = append(arms, Arm{Label: "lm_" + name, Scenario: s})
		}
		add(Figure{ID: "tournament-localmin", Title: "Forwarder arena: designed local-minimum detour (greedy strands, perimeter recovers)", Arms: arms})
	}

	return figs
}

// TournamentStrategies returns the forwarding strategies competing in the
// tournament figures: every registered strategy, in sorted name order.
func TournamentStrategies() []string {
	return geonet.StrategyNames()
}

// FigureIDs returns the registry keys in sorted order.
func FigureIDs() []string {
	figs := Figures()
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
