package campaign

import (
	"sort"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/showcase"
	"github.com/vanetsec/georoute/internal/traffic"
)

// ArmArtifact is the machine-readable result of one figure arm.
type ArmArtifact struct {
	// Overall is the merged-series overall reception rate (every packet
	// of every run weighted equally, matching the paper's metric).
	Overall float64 `json:"overall"`
	// Spread is the per-run dispersion of the overall rate.
	Spread metrics.Spread `json:"spread"`
	// Packets counts generated packets across all runs.
	Packets int `json:"packets"`
	// Rates are the merged per-bin reception rates.
	Rates []float64 `json:"rates"`
	// Attacker aggregates the attacker counters (zero for af arms).
	Attacker attack.Stats `json:"attacker"`
	// Protocol aggregates the GeoNetworking counters of every router
	// across all the arm's runs — the per-reason drop rollup of the
	// conservation-checked taxonomy (see internal/trace).
	Protocol geonet.Stats `json:"protocol"`
	// LatencyMeanSeconds is the mean first-delivery end-to-end latency
	// (0 when the arm delivered nothing).
	LatencyMeanSeconds float64 `json:"latency_mean_s"`
	// TxPerPacket is the per-packet forwarding transmission count across
	// all routers — the tournament's overhead axis (beacons excluded).
	TxPerPacket float64 `json:"tx_per_packet"`
}

// armTxPerPacket computes the overhead axis from an arm's aggregated
// protocol counters: every unicast and contention rebroadcast made on
// behalf of the workload, normalized by generated packets.
func armTxPerPacket(st geonet.Stats, packets int) float64 {
	if packets == 0 {
		return 0
	}
	return float64(st.GFForwarded+st.CBFForwarded) / float64(packets)
}

// PairArtifact is the measured γ/λ of one attack-free/attacked arm pair.
type PairArtifact struct {
	Free     string `json:"free"`
	Attacked string `json:"attacked"`
	// Drop is γ/λ of the merged series (the headline number).
	Drop float64 `json:"drop"`
	// PaperDrop is the paper-reported value (negative when the paper
	// gives none).
	PaperDrop float64 `json:"paper_drop"`
	// DropSpread is the dispersion of the seed-paired per-run drops.
	DropSpread metrics.Spread `json:"drop_spread"`
	// AccumDrop is the running drop per bin (Figs 8 and 10).
	AccumDrop []float64 `json:"accum_drop"`
}

// FigureArtifact is the per-figure JSON artifact a campaign finalize
// writes to results/<campaign>/<figureID>.json. geosim -format json emits
// the same structure for single-figure runs.
type FigureArtifact struct {
	ID         string                  `json:"id"`
	Title      string                  `json:"title"`
	Runs       int                     `json:"runs"`
	BinSeconds float64                 `json:"bin_seconds"`
	Arms       map[string]ArmArtifact  `json:"arms"`
	Pairs      map[string]PairArtifact `json:"pairs"`
}

// BuildFigureArtifact converts a FigureResult into the artifact form.
// Because Figure.Run and the campaign aggregator fold runs in the same
// canonical seed order, the artifact built here from a direct run is
// byte-identical to the one a campaign over the same figure finalizes.
func BuildFigureArtifact(res experiment.FigureResult) FigureArtifact {
	a := FigureArtifact{
		ID:         res.Figure.ID,
		Title:      res.Figure.Title,
		Runs:       res.Runs,
		BinSeconds: res.BinWidth.Seconds(),
		Arms:       make(map[string]ArmArtifact, len(res.Figure.Arms)),
		Pairs:      make(map[string]PairArtifact, len(res.Figure.Pairs)),
	}
	for _, arm := range res.Figure.Arms {
		a.Arms[arm.Label] = ArmArtifact{
			Overall:            res.Overall[arm.Label],
			Spread:             res.ArmSpread[arm.Label],
			Packets:            res.Packets[arm.Label],
			Rates:              res.Rates[arm.Label],
			Attacker:           res.Attacker[arm.Label],
			Protocol:           res.Protocol[arm.Label],
			LatencyMeanSeconds: res.LatencyMean[arm.Label],
			TxPerPacket:        armTxPerPacket(res.Protocol[arm.Label], res.Packets[arm.Label]),
		}
	}
	for _, p := range res.Figure.Pairs {
		a.Pairs[p.Label] = PairArtifact{
			Free:       p.Free,
			Attacked:   p.Attacked,
			Drop:       res.Drops[p.Label],
			PaperDrop:  p.PaperDrop,
			DropSpread: res.DropSpread[p.Label],
			AccumDrop:  res.AccumDrops[p.Label],
		}
	}
	return a
}

// Tournament figure and artifact IDs.
const (
	tournamentID         = "tournament"
	tournamentLocalMinID = "tournament-localmin"
	rankingID            = "tournament-ranking"
)

// StrategyScore is one leaderboard row of the forwarder tournament.
type StrategyScore struct {
	Strategy string `json:"strategy"`
	// Score is the composite ranking key: 0.4·delivery + 0.4·resilience
	// + 0.2·localmin, renormalized to 0.5/0.5 when the local-minimum
	// figure was not part of the campaign.
	Score float64 `json:"score"`
	// Delivery is the mean attack-free overall reception across the
	// inter-area and intra-area arms.
	Delivery float64 `json:"delivery"`
	// Resilience is 1 − mean clamped attack drop across both attacks
	// (1 = the attacks change nothing, 0 = they erase all reception).
	Resilience float64 `json:"resilience"`
	// LocalMin is the delivery rate on the designed local-minimum detour
	// (-1 when that figure was not run).
	LocalMin float64 `json:"local_min"`
	// HijackDrop and EchoDrop are the raw per-attack γ/λ drops.
	HijackDrop float64 `json:"hijack_drop"`
	EchoDrop   float64 `json:"echo_drop"`
	// TxPerPacket and LatencyMeanSeconds average the attack-free arms —
	// the tie-breakers, in that order (lower wins), then the name.
	TxPerPacket        float64 `json:"tx_per_packet"`
	LatencyMeanSeconds float64 `json:"latency_mean_s"`
}

// RankingArtifact is the tournament leaderboard, best strategy first.
type RankingArtifact struct {
	ID         string          `json:"id"`
	Title      string          `json:"title"`
	Runs       int             `json:"runs"`
	Strategies []StrategyScore `json:"ranking"`
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// BuildRankingArtifact scores every strategy of the tournament figure and
// ranks them. localMin may be nil when the campaign did not include the
// local-minimum figure; the composite weights renormalize accordingly.
func BuildRankingArtifact(tour experiment.FigureResult, localMin *experiment.FigureResult) RankingArtifact {
	art := RankingArtifact{
		ID:    rankingID,
		Title: "Forwarder arena leaderboard: composite of delivery, attack resilience and recovery",
		Runs:  tour.Runs,
	}
	for _, name := range experiment.TournamentStrategies() {
		afInter, afIntra := "af_inter_"+name, "af_intra_"+name
		s := StrategyScore{
			Strategy:   name,
			Delivery:   (tour.Overall[afInter] + tour.Overall[afIntra]) / 2,
			HijackDrop: tour.Drops["hijack_"+name],
			EchoDrop:   tour.Drops["echo_"+name],
			LocalMin:   -1,
			TxPerPacket: (armTxPerPacket(tour.Protocol[afInter], tour.Packets[afInter]) +
				armTxPerPacket(tour.Protocol[afIntra], tour.Packets[afIntra])) / 2,
			LatencyMeanSeconds: (tour.LatencyMean[afInter] + tour.LatencyMean[afIntra]) / 2,
		}
		s.Resilience = 1 - (clamp01(s.HijackDrop)+clamp01(s.EchoDrop))/2
		if localMin != nil {
			s.LocalMin = localMin.Overall["lm_"+name]
			s.Score = 0.4*s.Delivery + 0.4*s.Resilience + 0.2*s.LocalMin
		} else {
			s.Score = 0.5*s.Delivery + 0.5*s.Resilience
		}
		art.Strategies = append(art.Strategies, s)
	}
	sort.SliceStable(art.Strategies, func(i, j int) bool {
		a, b := art.Strategies[i], art.Strategies[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.TxPerPacket != b.TxPerPacket {
			return a.TxPerPacket < b.TxPerPacket
		}
		if a.LatencyMeanSeconds != b.LatencyMeanSeconds {
			return a.LatencyMeanSeconds < b.LatencyMeanSeconds
		}
		return a.Strategy < b.Strategy
	})
	return art
}

// HazardArmArtifact aggregates one arm of a Figure 12 showcase.
type HazardArmArtifact struct {
	// MeanVehicleCount[i] is the mean on-road vehicle count at second i
	// across seeds.
	MeanVehicleCount []float64 `json:"mean_vehicle_count"`
	// GateClosedRuns counts seeds where the entrance learned of the
	// hazard.
	GateClosedRuns int `json:"gate_closed_runs"`
	// MeanGateCloseSeconds is the mean closing time over those runs (0
	// when the warning never arrived).
	MeanGateCloseSeconds float64 `json:"mean_gate_close_s"`
}

// HazardArtifact is the per-showcase artifact for fig12a/fig12b.
type HazardArtifact struct {
	ID    string                       `json:"id"`
	Title string                       `json:"title"`
	Seeds int                          `json:"seeds"`
	Arms  map[string]HazardArmArtifact `json:"arms"`
}

// CurveArtifact is the fig13 artifact: the attack-free and attacked
// blind-curve runs side by side.
type CurveArtifact struct {
	ID       string               `json:"id"`
	Title    string               `json:"title"`
	Free     showcase.CurveResult `json:"free"`
	Attacked showcase.CurveResult `json:"attacked"`
}

// BuildCurveArtifact assembles the fig13 artifact.
func BuildCurveArtifact(free, attacked showcase.CurveResult) CurveArtifact {
	return CurveArtifact{
		ID:       curveID,
		Title:    "Blind-curve collision: speed profiles",
		Free:     free,
		Attacked: attacked,
	}
}

// TablesArtifact reproduces the paper's configuration tables in machine-
// readable form (Table I IDM parameters, Table II communication ranges).
type TablesArtifact struct {
	IDM    traffic.IDMParams             `json:"idm"`
	Ranges map[string]map[string]float64 `json:"ranges_m"`
}

// BuildTablesArtifact assembles the configuration artifact from the same
// sources that drive the simulation.
func BuildTablesArtifact() TablesArtifact {
	ranges := make(map[string]map[string]float64, 2)
	for _, t := range []struct {
		name string
		tech radio.Technology
	}{{"dsrc", radio.DSRC}, {"cv2x", radio.CV2X}} {
		ranges[t.name] = map[string]float64{
			"los_median":  radio.Range(t.tech, radio.LoSMedian),
			"nlos_median": radio.Range(t.tech, radio.NLoSMedian),
			"nlos_worst":  radio.Range(t.tech, radio.NLoSWorst),
		}
	}
	return TablesArtifact{IDM: traffic.DefaultIDM(), Ranges: ranges}
}
