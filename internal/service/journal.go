package service

// The journal is the durability layer: one append-only JSON-Lines file
// per session in the manager's data directory. The first record is the
// session spec; a session begun from PUT transcript records the
// imported transcript next, as a checkpoint record; every accepted
// answer appends a record before the synthesis loop consumes it;
// completion appends a final record. Appends are fsynced, so the
// journal survives a crash at any point — at worst the torn last line
// is dropped on recovery, which loses nothing that was acknowledged to
// a client (acknowledgement happens after the sync).
//
// Recovery semantics (see manager.go rebuild): a fresh stepper preloads
// the import record, if any, then replays every answer against the
// regenerated queries. Query generation is deterministic in (spec,
// imported transcript, answers), so the replayed session is
// bit-identical to the lost one. Checkpoint records anywhere else were
// written at eviction or shutdown by older builds; replay ignores them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"compsynth/internal/core"
)

// Journal record types.
const (
	recCreate     = "create"
	recAnswer     = "answer"
	recCheckpoint = "checkpoint"
	recFinal      = "final"
)

// journalRecord is one JSONL line. Fields are populated per Type.
type journalRecord struct {
	Type string `json:"type"`
	// create
	ID   string       `json:"id,omitempty"`
	Spec *SessionSpec `json:"spec,omitempty"`
	// answer: the queried pair, its sequence number within the stepper
	// that asked it, and the preference (0 tie, 1 first, 2 second).
	Seq  int       `json:"seq,omitempty"`
	A    []float64 `json:"a,omitempty"`
	B    []float64 `json:"b,omitempty"`
	Pref int       `json:"pref"`
	// Conf is the judgment confidence in (0, 1]. Zero (and every legacy
	// record, which predates the field) means full confidence — the same
	// zero-value convention as oracle.Judgment.
	Conf float64 `json:"conf,omitempty"`
	// checkpoint / final
	Transcript *core.Transcript `json:"transcript,omitempty"`
	// final only: the failure message for sessions that ended in error.
	Err string `json:"error,omitempty"`
}

// journal is an open per-session journal file.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// count is the number of intact records in the file. repl, when
	// set, mirrors every appended record to the session's replica set
	// under the same mutex — after the local fsync, before append
	// returns — which is the ack-before-confirm ordering the failover
	// protocol relies on (DESIGN.md §16).
	count int
	repl  *replicator
}

// journalPath names the session's journal file.
func journalPath(dataDir, id string) string {
	return filepath.Join(dataDir, id+".journal")
}

// createJournal starts a new journal with its create record.
func createJournal(dataDir, id string, spec *SessionSpec) (*journal, error) {
	path := journalPath(dataDir, id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: create journal: %w", err)
	}
	j := &journal{f: f, path: path}
	if err := j.append(journalRecord{Type: recCreate, ID: id, Spec: spec}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// openJournal reopens an existing journal for appending (recovery).
func openJournal(dataDir, id string) (*journal, error) {
	path := journalPath(dataDir, id)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: reopen journal: %w", err)
	}
	return &journal{f: f, path: path}, nil
}

// append writes one record and syncs it to stable storage.
func (j *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: marshal journal record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("service: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: sync journal: %w", err)
	}
	j.count++
	if j.repl != nil {
		j.repl.push(data[:len(data)-1], j.count-1)
	}
	return nil
}

// sync forces a full replica resynchronization of the journal (session
// create and post-adoption re-replication). Reports whether every
// replica acknowledged; no-op true without a replicator.
func (j *journal) sync() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.repl == nil {
		return true
	}
	return j.repl.syncAll()
}

// close releases the file handle; further appends fail.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// readJournalSpec loads just the session spec from a journal's create
// record — enough to know a session's replica set and epoch without
// decoding the whole file (the anti-entropy resync scan).
func readJournalSpec(path string) (*SessionSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("service: journal %s: bad create record: %w", path, err)
		}
		if rec.Type != recCreate || rec.Spec == nil {
			return nil, fmt.Errorf("service: journal %s does not start with a create record", path)
		}
		spec := *rec.Spec
		return &spec, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: read journal %s: %w", path, err)
	}
	return nil, fmt.Errorf("service: journal %s has no intact records", path)
}

// readJournal loads all intact records from a journal file. A torn
// final line (crash mid-append) is tolerated and dropped; corruption
// anywhere else is an error. The first record must be a create record
// with a spec.
func readJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	lineNo := 0
	var torn bool
	for sc.Scan() {
		lineNo++
		if torn {
			return nil, fmt.Errorf("service: journal %s line %d: record after unparseable line", path, lineNo-1)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Possibly the torn last line of a crash; only acceptable if
			// nothing follows.
			torn = true
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: read journal %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("service: journal %s has no intact records", path)
	}
	if recs[0].Type != recCreate || recs[0].Spec == nil {
		return nil, fmt.Errorf("service: journal %s does not start with a create record", path)
	}
	for i, rec := range recs {
		switch rec.Type {
		case recCreate:
			if i != 0 {
				return nil, fmt.Errorf("service: journal %s has a second create record at line %d", path, i+1)
			}
		case recAnswer:
			if len(rec.A) == 0 || len(rec.B) == 0 {
				return nil, fmt.Errorf("service: journal %s answer record %d lacks scenarios", path, i)
			}
		case recCheckpoint:
			if rec.Transcript == nil {
				return nil, fmt.Errorf("service: journal %s checkpoint record %d lacks a transcript", path, i)
			}
			if err := rec.Transcript.Validate(); err != nil {
				return nil, fmt.Errorf("service: journal %s checkpoint record %d: %w", path, i, err)
			}
		case recFinal:
			if rec.Transcript != nil {
				if err := rec.Transcript.Validate(); err != nil {
					return nil, fmt.Errorf("service: journal %s final record %d: %w", path, i, err)
				}
			}
		default:
			return nil, fmt.Errorf("service: journal %s has unknown record type %q", path, rec.Type)
		}
	}
	return recs, nil
}

// replayRecords filters a journal down to what rebuilds a session: the
// create record, the import record (a checkpoint at index 1, written by
// PUT transcript before any answer), and every answer in order. Any
// other checkpoint is an eviction or shutdown snapshot from an older
// build; replaying the answers around it subsumes it.
func replayRecords(recs []journalRecord) []journalRecord {
	out := make([]journalRecord, 0, len(recs))
	for i, rec := range recs {
		if rec.Type == recCreate || rec.Type == recAnswer || rec.Type == recCheckpoint && i == 1 {
			out = append(out, rec)
		}
	}
	return out
}
