package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
)

// fig7aScenario is the paper's default Fig. 7a arm (DSRC, NLoS-worst
// attack range) at the benchmark scale: 40 s of generation + 15 s drain.
func fig7aScenario() Scenario {
	s := Default()
	s.Duration = 40 * time.Second
	s.Drain = 15 * time.Second
	s.AttackMode = attack.InterArea
	return s
}

// serializeResult renders a RunResult to a canonical string: packet
// count, attacker counters, and every bin's (count, rate) pair at full
// float precision. Two runs are bit-identical iff the strings match.
func serializeResult(r RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets=%d\n", r.PacketsSent)
	fmt.Fprintf(&b, "attacker=%+v\n", r.AttackerStats)
	for i := 0; i < r.Series.Bins(); i++ {
		rate, ok := r.Series.Rate(i)
		fmt.Fprintf(&b, "bin%02d n=%d ok=%v rate=%s\n",
			i, r.Series.Count(i), ok, strconv.FormatFloat(rate, 'g', -1, 64))
	}
	return b.String()
}

// fig7aGolden is the serialized BinSeries of RunOnce(fig7aScenario(), 42)
// captured from the pre-index linear-scan medium. The spatial index must
// reproduce it bit-for-bit: the paper figures depend on the receiver
// sets and edge-hash outcomes being unchanged.
const fig7aGolden = `packets=40
attacker={BeaconsCaptured:1064 BeaconsReplayed:1064 PacketsCaptured:0 PacketsReplayed:0 DecodeErrors:0}
bin00 n=4 ok=true rate=0.25
bin01 n=5 ok=true rate=0
bin02 n=5 ok=true rate=0.4
bin03 n=5 ok=true rate=0
bin04 n=5 ok=true rate=0
bin05 n=5 ok=true rate=0.4
bin06 n=5 ok=true rate=0
bin07 n=6 ok=true rate=0
`

func TestFig7aDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	got := serializeResult(RunOnce(fig7aScenario(), 42))
	if got != fig7aGolden {
		t.Errorf("Fig. 7a output diverged from the linear-scan baseline:\ngot:\n%s\nwant:\n%s", got, fig7aGolden)
	}
}

// TestRunOnceRunToRunDeterminism asserts same seed ⇒ same output without
// referencing the golden, so it also guards future refactors.
func TestRunOnceRunToRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	s := fig7aScenario()
	s.Duration = 20 * time.Second
	s.Drain = 10 * time.Second
	a := serializeResult(RunOnce(s, 7))
	b := serializeResult(RunOnce(s, 7))
	if a != b {
		t.Errorf("same-seed runs diverge:\n%s\nvs:\n%s", a, b)
	}
}

// TestIntraAreaSeriesBitIdentical: an intra-area run folds dozens of
// per-packet reception fractions into each bin. The fold follows
// origination order, so repeated same-seed runs in one process must agree
// to the last bit (a map-ordered fold does not).
func TestIntraAreaSeriesBitIdentical(t *testing.T) {
	s := Default()
	s.Workload = IntraArea
	s.AttackMode = attack.IntraArea
	s.PacketInterval = 100 * time.Millisecond
	s.Duration = 10 * time.Second
	s.Drain = 2 * time.Second
	want := serializeResult(RunOnce(s, 3))
	for i := 1; i < 3; i++ {
		if got := serializeResult(RunOnce(s, 3)); got != want {
			t.Fatalf("run %d diverges from run 0:\n%s\nvs:\n%s", i, got, want)
		}
	}
}
