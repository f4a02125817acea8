package detect

import (
	"time"

	"github.com/vanetsec/georoute/internal/trace"
)

// Replay runs the monitors offline over a recorded trace and returns the
// populated Detector (read its Summary; install cfg.Sink to stream
// verdicts). It feeds the records to the same sink the online run uses,
// after one step: an own echo that carries no initial hop limit gets its
// origination time and initial RHL from the source's last TX record of
// that packet. JSONL records carry no position vectors, so on a decoded
// trace only the beacon inter-arrival, claim churn and own-echo checks
// run; the position and stale-timestamp checks need the in-memory claim.
func Replay(records []trace.Record, cfg Config) *Detector {
	d := New(cfg)
	type txKey struct {
		src uint64
		sn  uint16
	}
	type txInfo struct {
		at  time.Duration
		rhl uint8
	}
	lastTX := make(map[txKey]txInfo)
	for _, r := range records {
		switch {
		case r.Event == trace.EvTX && r.Node == r.Src:
			lastTX[txKey{r.Src, r.SN}] = txInfo{at: r.At, rhl: r.RHL}
		case r.Event == trace.EvDrop && r.Reason == trace.ReasonOwnEcho && r.InitRHL == 0:
			if tx, ok := lastTX[txKey{r.Src, r.SN}]; ok {
				r.ClaimTS, r.InitRHL = tx.at, tx.rhl
			}
		}
		d.Record(r)
	}
	return d
}
