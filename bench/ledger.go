package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"slices"
	"strings"
)

// layers are the simulator packages the ledger reports, plus "gc" for
// samples whose stack holds no simulator frame: GC workers, the scheduler
// and the harness's own bookkeeping.
var layers = []string{"sim", "radio", "security", "geonet", "forward", "traffic", "vanet", "attack",
	"experiment", "campaign", "trace", "detect", "telemetry", "geo", "metrics", "gc"}

// geonetParts split the geonet layer by source file.
var geonetParts = []string{"loct", "codec", "router", "strategy"}

const internalPrefix = "github.com/vanetsec/georoute/internal/"

// layerOf returns the simulator package a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return ""
}

// geonetPart maps a geonet source file to its part of the layer.
func geonetPart(file string) string {
	switch path.Base(file) {
	case "loct.go":
		return "loct"
	case "wire.go", "frame.go":
		return "codec"
	case "strategy.go":
		return "strategy"
	}
	return "router"
}

// ledger sums profile values by layer, and geonet's by source file.
type ledger struct {
	layer  map[string]int64
	geonet map[string]int64
	total  int64
}

func newLedger() *ledger {
	return &ledger{layer: map[string]int64{}, geonet: map[string]int64{}}
}

// add charges every sample's value of the given type to the innermost
// simulator frame on its stack, so a runtime or standard-library helper
// (malloc, map access, HMAC) is charged to the layer that called it.
func (l *ledger) add(p *profile, sampleType string) error {
	idx := slices.Index(p.sampleTypes, sampleType)
	if idx < 0 {
		return fmt.Errorf("profile has no %q samples", sampleType)
	}
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		v := s.values[idx]
		layer, file := p.charge(s.locations)
		l.layer[layer] += v
		if layer == "geonet" {
			l.geonet[geonetPart(file)] += v
		}
		l.total += v
	}
	return nil
}

// shares renders the ledger as <layer>.<suffix> metrics.
func (l *ledger) shares(suffix string, into map[string]float64) {
	share := func(v int64) float64 {
		if l.total == 0 {
			return 0
		}
		return float64(v) / float64(l.total)
	}
	for _, name := range layers {
		into[name+"."+suffix] = share(l.layer[name])
	}
	for _, part := range geonetParts {
		into["geonet."+part+"."+suffix] = share(l.geonet[part])
	}
}

// profile is the part of a pprof profile the ledger reads.
type profile struct {
	sampleTypes []string
	samples     []profileSample
	// locations maps a location to its functions, innermost first.
	locations map[uint64][]uint64
	functions map[uint64]profileFunc
}

type profileSample struct {
	locations []uint64 // leaf first
	values    []int64
}

type profileFunc struct{ name, file string }

// charge returns the layer and source file of the innermost simulator
// frame of a stack.
func (p *profile) charge(locs []uint64) (layer, file string) {
	for _, loc := range locs {
		for _, fid := range p.locations[loc] {
			fn := p.functions[fid]
			if l := layerOf(fn.name); l != "" {
				return l, fn.file
			}
		}
	}
	return "gc", ""
}

func readProfile(name string) (*profile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	p, err := parseProfile(b)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	return p, nil
}

// parseProfile decodes the profile.proto messages the ledger needs:
// sample types, samples, locations, functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]profileFunc{}}
	var strs []string
	var typeIdx []uint64
	type rawFunc struct{ id, name, file uint64 }
	var funcs []rawFunc
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s profileSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locations, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var f rawFunc
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			funcs = append(funcs, f)
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, f := range funcs {
		name, err := str(f.name)
		if err != nil {
			return nil, err
		}
		file, err := str(f.file)
		if err != nil {
			return nil, err
		}
		p.functions[f.id] = profileFunc{name: name, file: file}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. A varint field
// passes its value in v; a length-delimited one passes its bytes in data.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may be packed
// (data set) or not (one value in v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
