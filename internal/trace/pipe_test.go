package trace

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// pipeRecords returns n records that differ in every field, the
// in-memory claim fields included.
func pipeRecords(n int) []Record {
	base := allRecords()
	recs := make([]Record, n)
	for i := range recs {
		r := base[i%len(base)]
		r.At = time.Duration(i) * time.Microsecond
		r.Node = uint64(i) * 0x9E3779B97F4A7C15
		r.InitRHL = uint8(i)
		r.HasClaim = i%2 == 0
		r.ClaimPos = geo.Pt(float64(i), -float64(i)/3)
		r.ClaimTS = time.Duration(i) * time.Millisecond
		r.RxPos = geo.Pt(float64(i)/7, float64(i))
		r.RxRange = 100 + float64(i)/11
		recs[i] = r
	}
	return recs
}

func TestPipeDeliversInOrder(t *testing.T) {
	for _, n := range []int{0, 1, pipeBatch - 1, pipeBatch, pipeBatch + 1, 10*pipeBatch + 3} {
		mem := &MemorySink{}
		piped, drain := Pipe(New(mem))
		want := pipeRecords(n)
		for _, r := range want {
			piped.Emit(r)
		}
		drain()
		if len(mem.Records) != n {
			t.Fatalf("%d records emitted, %d delivered", n, len(mem.Records))
		}
		for i := range want {
			if mem.Records[i] != want[i] {
				t.Fatalf("%d records: record %d = %+v, want %+v", n, i, mem.Records[i], want[i])
			}
		}
	}
}

func TestPipeNilTracer(t *testing.T) {
	piped, drain := Pipe(nil)
	if piped != nil {
		t.Fatalf("Pipe(nil) = %v, want the nil tracer", piped)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, drain := Pipe(nil)
		drain()
	})
	if allocs != 0 {
		t.Errorf("Pipe(nil) and its drain allocate %.1f times, want 0", allocs)
	}
	drain()
}

func TestPipeEmitAllocs(t *testing.T) {
	piped, drain := Pipe(New(NewJSONLWriter(io.Discard)))
	defer drain()
	r := allRecords()[1]
	for range 4 * pipeDepth * pipeBatch {
		piped.Emit(r)
	}
	allocs := testing.AllocsPerRun(20*pipeBatch, func() { piped.Emit(r) })
	if allocs != 0 {
		t.Errorf("piped Emit allocates %.3f times per record, want 0", allocs)
	}
}

// pipeGoroutines counts the goroutines Pipe started that have not
// exited. It matches the "created by" line, which every such goroutine's
// trace carries; a consumer that has not run yet shows only the go
// statement's wrapper, not consume.
func pipeGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by github.com/vanetsec/georoute/internal/trace.Pipe ")
}

// awaitPipeGoroutines waits until exactly want goroutines started by
// Pipe are left. drain returns once the consumer has closed its done
// channel; the goroutine then only returns, so its exit is waited for.
func awaitPipeGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pipeGoroutines() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d pipe goroutines left, want %d", pipeGoroutines(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipeDrainEndsGoroutine(t *testing.T) {
	// Every earlier pipe of this package's tests has been drained.
	awaitPipeGoroutines(t, 0)
	piped, drain := Pipe(New(&MemorySink{}))
	for _, r := range pipeRecords(3*pipeBatch + 5) {
		piped.Emit(r)
	}
	if got := pipeGoroutines(); got != 1 {
		t.Errorf("%d pipe goroutines while the pipe runs, want 1", got)
	}
	drain()
	awaitPipeGoroutines(t, 0)
}

func BenchmarkTracePipe(b *testing.B) {
	piped, drain := Pipe(New(NewJSONLWriter(io.Discard)))
	r := allRecords()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		piped.Emit(r)
	}
	drain()
}
