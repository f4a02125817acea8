package trace

import "sync"

// pipeBatch is the number of records a pipe hands over at once. A batch
// of 256 96-byte records is 24 KB, under the runtime's 32 KB large-object
// size; 1024-record batches ran faster but cost 15–18% peak RSS.
const pipeBatch = 256

// pipeDepth is the number of batches in a pipe's ring: one filling, one
// being consumed and two queued between them.
const pipeDepth = 4

// rings keeps the batch rings of drained pipes for the next pipe, so a
// sequence of runs allocates one ring per concurrent run, not one per
// run. A ring is a channel holding its pipeDepth empty batches.
var rings struct {
	sync.Mutex
	free []chan []Record
}

func takeRing() chan []Record {
	rings.Lock()
	defer rings.Unlock()
	if n := len(rings.free); n > 0 {
		ring := rings.free[n-1]
		rings.free = rings.free[:n-1]
		return ring
	}
	ring := make(chan []Record, pipeDepth)
	for range pipeDepth {
		ring <- make([]Record, pipeBatch)
	}
	return ring
}

func putRing(ring chan []Record) {
	rings.Lock()
	rings.free = append(rings.free, ring)
	rings.Unlock()
}

// pipe is the producer side of Pipe: it copies records into the batch it
// holds and hands each full batch to the consumer goroutine.
type pipe struct {
	batch []Record
	n     int
	full  chan []Record // batches for the consumer, in emission order
	free  chan []Record // the ring: batches the consumer has finished
	done  chan struct{} // closed when the consumer exits
}

// Pipe moves t's sinks onto one goroutine of their own. The returned
// tracer copies each record into a batch and hands full batches to that
// goroutine, which feeds them to t in emission order, so the sinks see
// exactly the stream t would have seen, one record at a time. drain hands
// over the last partial batch and returns once the goroutine has fed
// every record and exited; only then may the caller read the sinks.
// Emitting through the returned tracer after drain panics.
//
// A nil t gives a nil tracer and a drain that does nothing, and starts no
// goroutine, so an unobserved run keeps the nil fast path.
func Pipe(t *Tracer) (piped *Tracer, drain func()) {
	if t == nil {
		return nil, noDrain
	}
	p := &pipe{
		full: make(chan []Record, pipeDepth),
		free: takeRing(),
		done: make(chan struct{}),
	}
	p.batch = <-p.free
	go p.consume(t)
	return &Tracer{sinks: []Sink{p}}, p.drain
}

func noDrain() {}

// Record implements Sink: it copies r into the current batch and, once the
// batch is full, queues it and takes an empty one, waiting for the
// consumer when all are queued.
func (p *pipe) Record(r Record) {
	p.batch[p.n] = r
	p.n++
	if p.n == pipeBatch {
		p.full <- p.batch
		p.batch = <-p.free
		p.n = 0
	}
}

// consume feeds every queued batch to t and returns it to the ring.
func (p *pipe) consume(t *Tracer) {
	for b := range p.full {
		for i := range b {
			t.Emit(b[i])
		}
		p.free <- b[:pipeBatch]
	}
	close(p.done)
}

func (p *pipe) drain() {
	p.full <- p.batch[:p.n]
	p.batch, p.n = nil, 0
	close(p.full)
	<-p.done
	// Every batch is back in the ring: the consumer returned each one it
	// received, and the producer handed over the one it held.
	putRing(p.free)
}
