package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/showcase"
)

// CellResult is the journaled payload of one completed cell. Exactly one
// of Run/Hazard/Curve is set, matching the cell kind; Resources carries
// the cell's measured cost (wall clock, allocations, events) and rides
// along on every journal line.
type CellResult struct {
	Run       *experiment.RunResult  `json:"run,omitempty"`
	Hazard    *showcase.HazardResult `json:"hazard,omitempty"`
	Curve     *showcase.CurveResult  `json:"curve,omitempty"`
	Resources *CellResources         `json:"resources,omitempty"`
}

// entry is one journal line.
type entry struct {
	Type string `json:"type"` // "header" or "cell"

	// Header fields.
	Campaign string `json:"campaign,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`

	// Cell fields.
	Key    string      `json:"key,omitempty"`
	Result *CellResult `json:"result,omitempty"`
}

// Journal is the append-only checkpoint file of a campaign. Every
// completed cell is written as one JSON line and flushed immediately, so a
// killed campaign loses at most the cells that were still in flight.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// errTornHeader reports that the journal's first line is not a readable
// header — the signature of a hard kill during the very first append (or
// header-line corruption). Unlike a spec-hash mismatch this carries no
// user intent to protect, so OpenJournal recovers instead of erroring.
var errTornHeader = errors.New("campaign: journal header line is torn or corrupt")

// OpenJournal opens (creating if needed) the journal at path, verifies its
// header against the spec, and returns the replayed results of every
// already-completed cell keyed by cell key. A truncated final line — the
// signature of a hard kill mid-write — is discarded and overwritten by the
// next append. A torn or corrupt *header* line means no entry after it is
// trustworthy: the file is moved aside to <path>.corrupt (replacing any
// earlier backup) and the journal starts fresh, so a kill during the very
// first append never wedges the campaign. Replayed entries with keys the
// spec does not enumerate are rejected, since the header hash should have
// caught any spec drift.
func OpenJournal(path string, sp Spec) (*Journal, map[string]CellResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: %w", err)
	}
	replayed, goodOff, err := replay(f, sp)
	if errors.Is(err, errTornHeader) {
		// Empty-with-backup: preserve the unreadable bytes for forensics,
		// then reopen a pristine file at the same path.
		f.Close()
		if err := os.Rename(path, path+".corrupt"); err != nil {
			return nil, nil, fmt.Errorf("campaign: backing up corrupt journal: %w", err)
		}
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: %w", err)
		}
		replayed, goodOff = map[string]CellResult{}, 0
	} else if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop any torn trailing write, then position for appends.
	if err := f.Truncate(goodOff); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	if goodOff == 0 {
		// Fresh journal: write the header first so a resume can verify it
		// is continuing the same campaign.
		if err := j.append(entry{Type: "header", Campaign: sp.Name, SpecHash: sp.Hash()}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, replayed, nil
}

// replay scans a journal from the start, validating the header and
// collecting completed cells. It returns the byte offset just past the
// last fully-written line. It only reads, so it serves both the run's own
// journal and the part journals of a merge.
func replay(f io.Reader, sp Spec) (map[string]CellResult, int64, error) {
	replayed := make(map[string]CellResult)
	valid := make(map[string]bool)
	cells, err := sp.Cells()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range cells {
		valid[c.Key()] = true
	}

	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	first := true
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if first && len(bytes.TrimSpace(line)) > 0 {
				// The header append itself was torn mid-write.
				return nil, 0, errTornHeader
			}
			// No trailing newline: the final append was torn. Discard it.
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("campaign: reading journal: %w", err)
		}
		var e entry
		if json.Unmarshal(bytes.TrimSpace(line), &e) != nil {
			if first {
				// An unreadable first line leaves every later line
				// unanchored — no header means no spec check — so the
				// whole file is untrustworthy, not just a torn tail.
				return nil, 0, errTornHeader
			}
			// A corrupt line can only be the torn tail of a hard kill;
			// anything after it is unreachable by the appender, so stop.
			break
		}
		if first {
			if e.Type != "header" {
				return nil, 0, errTornHeader
			}
			if e.SpecHash != sp.Hash() {
				return nil, 0, fmt.Errorf("campaign: journal was written by a different spec (campaign %q, hash %.12s… vs %.12s…) — use a new campaign name or delete the old results directory",
					e.Campaign, e.SpecHash, sp.Hash())
			}
			first = false
			off += int64(len(line))
			continue
		}
		if e.Type != "cell" || e.Result == nil {
			return nil, 0, fmt.Errorf("campaign: malformed journal entry of type %q", e.Type)
		}
		if !valid[e.Key] {
			return nil, 0, fmt.Errorf("campaign: journal entry %q is not a cell of this spec", e.Key)
		}
		replayed[e.Key] = *e.Result
		off += int64(len(line))
	}
	return replayed, off, nil
}

// Record journals one completed cell. The line is flushed to the OS
// before Record returns, so only a cell whose write was torn by a hard
// kill is ever re-run.
func (j *Journal) Record(key string, res CellResult) error {
	return j.append(entry{Type: "cell", Key: key, Result: &res})
}

func (j *Journal) append(e entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("campaign: encoding journal entry: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(b); err != nil {
		return fmt.Errorf("campaign: writing journal: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("campaign: writing journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("campaign: flushing journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
