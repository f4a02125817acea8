package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceRecord feeds arbitrary lines to the strict decoder. Any line
// it accepts must re-encode through AppendJSON and decode to the same
// Record, so a validated trace means exactly what its records say.
func FuzzTraceRecord(f *testing.F) {
	seed := func(r Record) { f.Add(bytes.TrimSpace(AppendJSON(nil, r))) }
	for _, r := range allRecords() {
		seed(r)
	}
	for e := Event(0); e < numEvents; e++ {
		seed(Record{At: 1, Node: 2, Event: e})
	}
	for k := KindNone + 1; k < numKinds; k++ {
		seed(Record{At: 1, Node: 2, Event: EvTX, Kind: k})
	}
	for rs := ReasonNone + 1; rs < numReasons; rs++ {
		seed(Record{At: 1, Node: 2, Event: EvDrop, Reason: rs})
	}
	for pt := PTNone + 1; pt < numPTypes; pt++ {
		seed(Record{At: 1, Node: 2, Src: 3, SN: 4, Event: EvRX, PType: pt, RHL: 5})
	}
	f.Add([]byte(`{"t":5,"ev":"rx","node":1,"pt":"beacon"}{"t":5,"ev":"rx","node":2}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := DecodeRecord(line)
		if err != nil {
			return
		}
		again, err := DecodeRecord(AppendJSON(nil, r))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", r, err)
		}
		if again != r {
			t.Fatalf("round trip changed the record:\n%+v\n%+v", r, again)
		}
	})
}
