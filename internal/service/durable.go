package service

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmfb/internal/faultinject"
	"dmfb/internal/ordered"
)

// jobManifest is the durable snapshot of one job's identity and lifecycle,
// written as <dir>/<id>/manifest.json. The request is stored verbatim so a
// restarted coordinator can re-plan the sweep (grid expansion is
// deterministic) and resume evaluation at the first index missing from the
// result log.
type jobManifest struct {
	ID          string       `json:"id"`
	State       JobState     `json:"state"`
	Error       string       `json:"error,omitempty"`
	Reason      string       `json:"reason,omitempty"`
	TotalPoints int          `json:"total_points"`
	CreatedAt   time.Time    `json:"created_at"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	Request     SweepRequest `json:"request"`
	// ResultRecords and ResultsCRC seal a terminal job's result log: the
	// number of committed records and the rolling CRC32C over their payloads,
	// filled in by the file persister at the terminal manifest save. A sealed
	// log serves its sealed records or none, at replay and at first read
	// alike: whole records past the seal are truncated away, and a log that
	// falls short of the seal or disagrees with it was corrupted or truncated
	// after the fact, so the job is demoted to failed/storage with no record
	// instead of served with silently wrong bytes.
	ResultRecords int    `json:"result_records,omitempty"`
	ResultsCRC    string `json:"results_crc,omitempty"`
}

// persistedJob is one job directory as replay read it: its manifest,
// demoted when the result log fails its seal, and the prefix of its result
// log that replay kept. For a running job that is the longest verified
// prefix (a trailing partial line from a crash mid-write is truncated away,
// and re-evaluated on resume); for a sealed job it is the sealed records,
// or none when the log fails its seal. Only a running job carries its
// records, because it resumes by appending to them; a terminal job's
// records stay on disk until its first read.
type persistedJob struct {
	manifest     jobManifest
	manifestSize int64  // 0 when the directory holds no readable manifest
	path         string // the result log
	log          logPrefix
	res          resultBuf
	logBytes     int64 // the result log's bytes on disk when replay read it
	demoted      bool  // the log failed its seal
}

// logPrefix is a checksum-verified prefix of a result log: its record
// count, the rolling CRC32C chain over the records' payloads, and its
// length on disk.
type logPrefix struct {
	records int
	chain   uint32
	size    int64
}

// payloadBytes is the prefix's encoded JSON bytes: its disk bytes less the
// CRC prefix of every record.
func (lp logPrefix) payloadBytes() int64 { return lp.size - int64(lp.records)*recordCRCLen }

// crcHex renders the prefix's chain as a manifest seal does.
func (lp logPrefix) crcHex() string { return fmt.Sprintf("%08x", lp.chain) }

// seal is the prefix a terminal manifest seals its result log to, or nil
// for an unsealed log: a running job's, or one whose manifest predates
// seals. A checksum that does not parse seals a prefix no log can match.
func (m jobManifest) seal() *logPrefix {
	if !m.State.terminal() || m.ResultsCRC == "" {
		return nil
	}
	chain, err := strconv.ParseUint(m.ResultsCRC, 16, 32)
	if err != nil {
		return &logPrefix{records: -1}
	}
	return &logPrefix{records: m.ResultRecords, chain: uint32(chain)}
}

// errSealMismatch marks a result log that does not verify to its seal.
var errSealMismatch = errors.New("log does not match its seal")

// jobPersister is the pluggable durability backend of a job store: the
// in-memory store uses the no-op nullPersister, the durable store a
// filePersister. Implementations are called with the owning job's mutex
// released but from at most one goroutine per job (the job runner), plus
// the store's eviction path for remove.
type jobPersister interface {
	// saveManifest durably records a job's manifest (at creation and at
	// every terminal transition), replacing any previous one atomically.
	saveManifest(m jobManifest) error
	// appendResult durably appends the job's records from index from on,
	// a contiguous run of encoded NDJSON lines, to its result log before
	// any of them becomes visible to streams, so a crash never loses a
	// record a client may already have read. The run commits whole or not
	// at all.
	appendResult(id string, res resultBuf, from int) error
	// finishResults releases the job's open result-log handle (the job
	// reached a terminal state and will append no more lines).
	finishResults(id string)
	// remove deletes every on-disk artifact of an evicted job.
	remove(id string) error
	// diskBytes reports the bytes currently held on disk across all jobs.
	diskBytes() int64
	// load recovers every persisted job, in creation (sequence) order.
	load() ([]persistedJob, error)
	// readResults reads a terminal job's records back from its log into
	// one exact buffer, sealed to the prefix want that load kept: it
	// serves those records or, when the log no longer verifies to them
	// (deleted, truncated or corrupted since), none and an
	// errSealMismatch, having emptied the log and its committed prefix as
	// replay does. Any other error is the I/O error that stopped the read.
	readResults(id string, want logPrefix) (resultBuf, error)
	// close releases all open handles.
	close()
}

// nullPersister backs the pure in-memory store: persistence is a no-op and
// replay finds nothing.
type nullPersister struct{}

func (nullPersister) saveManifest(jobManifest) error            { return nil }
func (nullPersister) appendResult(string, resultBuf, int) error { return nil }
func (nullPersister) finishResults(string)                      {}
func (nullPersister) remove(string) error                       { return nil }
func (nullPersister) diskBytes() int64                          { return 0 }
func (nullPersister) load() ([]persistedJob, error)             { return nil, nil }
func (nullPersister) close()                                    {}

func (nullPersister) readResults(string, logPrefix) (resultBuf, error) { return resultBuf{}, nil }

// filePersister is the durable backend: one directory per job holding
// manifest.json (atomically replaced via rename) and results.ndjson
// (append-only, one write and one fsync per committed run of records).
//
// Each result-log line carries a CRC32C of its payload ("crc8hex payload\n")
// and the persister keeps each job's committed prefix (record count,
// rolling CRC chain, length), sealed into the manifest at the terminal
// save. The checksums live only on disk: callers hand in and get back pure
// JSON payloads, so the bytes served to streams are exactly the bytes the
// evaluation emitted.
type filePersister struct {
	dir    string
	inject *faultinject.Injector // fault schedule; nil disables chaos

	mu      sync.Mutex
	jobs    map[string]*jobFiles
	crashed bool // test hook: simulate SIGKILL (drop all writes)
}

// jobFiles is what the persister holds for one job.
type jobFiles struct {
	log          *os.File  // open result log of a running job, or nil
	manifestSize int64     // the manifest's bytes on disk
	committed    logPrefix // the result log's committed records: the seal, and the torn-write rollback point
}

// closeLog closes the job's result log, if open.
func (jf *jobFiles) closeLog() {
	if jf.log != nil {
		jf.log.Close()
		jf.log = nil
	}
}

// newFilePersister prepares the backend rooted at dir, creating it if
// needed.
func newFilePersister(dir string) (*filePersister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: job store dir: %w", err)
	}
	return &filePersister{dir: dir, jobs: make(map[string]*jobFiles)}, nil
}

// crcTable is the Castagnoli polynomial used for result-log checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordCRCLen is the per-line overhead: 8 hex chars + one space.
const recordCRCLen = 9

// appendRecordLine appends a payload, prefixed with its CRC32C, to the
// on-disk form of a run.
func appendRecordLine(dst, payload []byte) []byte {
	dst = fmt.Appendf(dst, "%08x ", crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// decodeRecordLine splits a disk line into its verified payload. The payload
// keeps its trailing newline. Returns false when the prefix is malformed or
// the checksum does not match.
func decodeRecordLine(line []byte) (payload []byte, ok bool) {
	if len(line) <= recordCRCLen || line[recordCRCLen-1] != ' ' {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, false
	}
	payload = line[recordCRCLen:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, crcTable) != want {
		return nil, false
	}
	return payload, true
}

func (p *filePersister) jobDir(id string) string { return filepath.Join(p.dir, id) }

// saveManifest writes the manifest via tmp-file + fsync + rename, so a
// crash leaves either the old or the new manifest, never a torn one. At a
// terminal save it seals the result log: record count and rolling CRC go
// into the manifest so replay can prove the log complete and uncorrupted.
func (p *filePersister) saveManifest(m jobManifest) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil
	}
	if d := p.inject.Eval(faultinject.StoreManifestWrite); d.Fire {
		return d.Err
	}
	jf := p.jobs[m.ID]
	if jf == nil {
		jf = &jobFiles{} // recorded once the manifest is on disk
	}
	if m.State.terminal() {
		m.ResultRecords, m.ResultsCRC = jf.committed.records, jf.committed.crcHex()
	}
	dir := p.jobDir(m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	tmp := filepath.Join(dir, "manifest.json.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, "manifest.json")
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(dir)
	jf.manifestSize = int64(len(buf))
	p.jobs[m.ID] = jf
	return nil
}

// appendResult appends the run of records from index from on, each line
// CRC-prefixed, to the job's result log with one write and fsyncs once
// before returning — the commit point that makes every record of the run
// durable together. On any failure past the
// first byte the log is rolled back to its last committed length, so a
// failed append never leaves part of a run that a reader could mistake for
// progress (a torn tail from a genuine crash is instead caught by the
// newline/CRC scan on replay).
func (p *filePersister) appendResult(id string, res resultBuf, from int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil
	}
	if d := p.inject.Eval(faultinject.StoreAppendENOSPC); d.Fire {
		return fmt.Errorf("%w: no space left on device", d.Err)
	}
	jf := p.jobs[id]
	if jf == nil {
		jf = &jobFiles{}
		p.jobs[id] = jf
	}
	if jf.log == nil {
		f, err := os.OpenFile(filepath.Join(p.jobDir(id), "results.ndjson"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		jf.log = f
		if off, err := f.Seek(0, io.SeekEnd); err == nil {
			jf.committed.size = off
		}
	}
	f, c := jf.log, &jf.committed
	n := res.count() - from
	disk := make([]byte, 0, len(res.buf)-res.start(from)+n*recordCRCLen)
	for i := from; i < res.count(); i++ {
		disk = appendRecordLine(disk, res.line(i))
	}
	if d := p.inject.Eval(faultinject.StoreAppendWrite); d.Fire {
		// Torn write: a prefix of the run reaches the disk, then the write
		// errors. Deliberately not rolled back — this is the injected
		// analog of a crash mid-write, which replay must truncate away.
		_, _ = f.Write(disk[:len(disk)/2])
		return d.Err
	}
	if _, err := f.Write(disk); err != nil {
		_ = f.Truncate(c.size)
		return err
	}
	if d := p.inject.Eval(faultinject.StoreAppendFsync); d.Fire {
		_ = f.Truncate(c.size)
		return d.Err
	}
	if err := f.Sync(); err != nil {
		_ = f.Truncate(c.size)
		return err
	}
	for i := from; i < res.count(); i++ {
		c.chain = crc32.Update(c.chain, crcTable, res.line(i))
	}
	c.records += n
	c.size += int64(len(disk))
	return nil
}

// finishResults closes the job's result log; the job is terminal.
func (p *filePersister) finishResults(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if jf := p.jobs[id]; jf != nil {
		jf.closeLog()
	}
}

// remove deletes the job's directory (manifest and result log).
func (p *filePersister) remove(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil
	}
	if jf := p.jobs[id]; jf != nil {
		jf.closeLog()
	}
	delete(p.jobs, id)
	return os.RemoveAll(p.jobDir(id))
}

// diskBytes reports the bytes held on disk across all retained jobs.
func (p *filePersister) diskBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, jf := range p.jobs {
		total += jf.manifestSize + jf.committed.size
	}
	return total
}

// load scans the store directory and recovers every job, keeping of each
// result log what scanResultLog vouches for: a running job's longest
// verified prefix (a torn or bit-flipped tail left by a crash or disk fault
// is dropped and re-evaluated on resume), and a sealed job's sealed records,
// or none when its log fails the seal. The log is truncated to what is
// kept, so whole records past a seal, which a torn append of a failed job
// can leave, go; and a job whose log fails its seal is demoted to
// failed/storage with an empty log — corruption becomes a typed terminal
// error, never silently wrong bytes. Only a running job comes back with
// its lines; a terminal job keeps just its prefix, to which readResults
// holds the log again at its first read.
// Jobs whose manifest is unreadable are skipped (their directories are left
// in place for operator inspection); load fails only on I/O errors, and
// returns the one at the first job directory in name order.
//
// The job directories are the items of an ordered fold: workers read the
// manifests and scan the logs in parallel, and the in-order commit draws
// the store.replay.corrupt seam for each non-empty log, truncates and
// saves a demotion. Every decision and error is the one a serial pass over
// the directories would make.
func (p *filePersister) load() ([]persistedJob, error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("service: job store scan: %w", err)
	}
	var ids []string
	for _, ent := range entries {
		if ent.IsDir() {
			ids = append(ids, ent.Name())
		}
	}
	var jobs []persistedJob
	err = ordered.Run(context.Background(), len(ids), 0,
		func() (func(context.Context, int) (persistedJob, error), error) {
			return func(_ context.Context, i int) (persistedJob, error) { return p.scanJob(ids[i], false) }, nil
		},
		func(i int, pj persistedJob) (bool, error) {
			var err error
			if pj.logBytes > 0 && p.inject.Eval(faultinject.StoreReplayCorrupt).Fire {
				// The seam fired: scan the job again, flipping a bit mid-log.
				if pj, err = p.scanJob(ids[i], true); err != nil {
					return false, err
				}
			}
			if pj.manifestSize == 0 {
				return false, nil
			}
			if err := p.replayJob(pj); err != nil {
				return false, err
			}
			jobs = append(jobs, pj)
			return false, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	sort.Slice(jobs, func(i, j int) bool {
		return jobSeq(jobs[i].manifest.ID) < jobSeq(jobs[j].manifest.ID)
	})
	return jobs, nil
}

// scanJob reads job directory id: it drops a leftover manifest.json.tmp (an
// atomic replace interrupted between write and rename, so the committed
// manifest, if any, is authoritative), decodes the manifest and scans the
// result log against its seal, with flip set through the
// store.replay.corrupt bit flip. A log that fails its seal demotes the job
// to failed/storage. A directory with no manifest (a crash before the
// first save, or a foreign directory) or with a torn or foreign one gives a
// zero record.
func (p *filePersister) scanJob(id string, flip bool) (persistedJob, error) {
	dir := p.jobDir(id)
	// One unlink, whose error (almost always: no such file) is moot;
	// os.Remove would follow a failed unlink with an rmdir.
	_ = syscall.Unlink(filepath.Join(dir, "manifest.json.tmp"))
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return persistedJob{}, nil
	}
	pj := persistedJob{manifestSize: int64(len(raw)), path: filepath.Join(dir, "results.ndjson")}
	m := &pj.manifest
	if err := json.Unmarshal(raw, m); err != nil || m.ID != id {
		return persistedJob{}, nil
	}
	pj.res, pj.log, pj.logBytes, err = p.scanResultLog(pj.path, m.seal(), !m.State.terminal(), flip)
	if errors.Is(err, errSealMismatch) {
		m.Error = "result log failed verification on replay: " + err.Error()
		m.State, m.Reason = JobFailed, ReasonStorage
		pj.demoted, err = true, nil
	}
	return pj, err
}

// replayJob commits one scanned job, in directory order: it truncates what
// is not kept, records the job's files and persists a demotion.
func (p *filePersister) replayJob(pj persistedJob) error {
	if pj.log.size < pj.logBytes {
		if err := os.Truncate(pj.path, pj.log.size); err != nil {
			return fmt.Errorf("service: truncate unverified records: %w", err)
		}
	}
	p.mu.Lock()
	p.jobs[pj.manifest.ID] = &jobFiles{manifestSize: pj.manifestSize, committed: pj.log}
	p.mu.Unlock()
	if pj.demoted {
		// Persist the demotion, sealing the now empty log, so the
		// diagnosis survives the next restart too (best effort: the job
		// is already failed in memory even if this write loses a race
		// with the disk).
		_ = p.saveManifest(pj.manifest)
	}
	return nil
}

// readResults reads a terminal job's records back from its log, sealed to
// the prefix load kept, into one buffer sized to it exactly. A log that
// fails the seal keeps no record, as at replay: it is emptied (best
// effort) along with the job's committed prefix, so the demotion's saved
// seal of 0 records agrees at every later restart.
func (p *filePersister) readResults(id string, want logPrefix) (resultBuf, error) {
	flip := p.inject.Eval(faultinject.StoreReplayCorrupt).Fire
	log := filepath.Join(p.jobDir(id), "results.ndjson")
	res, _, _, err := p.scanResultLog(log, &want, true, flip)
	if !errors.Is(err, errSealMismatch) {
		return res, err
	}
	p.mu.Lock()
	if jf := p.jobs[id]; jf != nil && !p.crashed {
		_ = os.Truncate(log, 0)
		jf.committed = logPrefix{}
	}
	p.mu.Unlock()
	return resultBuf{}, fmt.Errorf("result log failed verification on first read: %w", err)
}

// close releases every open result-log handle.
func (p *filePersister) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, jf := range p.jobs {
		jf.closeLog()
	}
}

// crashForTest simulates a SIGKILL: every subsequent write is silently
// dropped and open handles are released, so a second store can be opened on
// the same directory and observe exactly the state an abrupt process death
// would have left.
func (p *filePersister) crashForTest() {
	p.mu.Lock()
	p.crashed = true
	p.mu.Unlock()
	p.close()
}

// scanResultLog is the one verifier of a result log: it decides what the
// log vouches for. It reads the log front to back through a small buffer,
// never holding the file whole, and verifies each line: it must be
// newline-terminated and pass its CRC32C check. The scan stops at the
// first bad line — torn by a crash, bit-flipped by the disk, or, with flip
// set, by the store.replay.corrupt injection, which flips one bit in the
// middle of a non-empty log as it is read.
//
// Without a seal it vouches for the longest verified prefix. With one it
// reads at most the sealed records and vouches for exactly those when
// every line verifies and the chain over them matches the seal's;
// otherwise for none, returning the zero prefix and an errSealMismatch
// that says why. It also returns the file's size and, with keep set, the
// kept records (pure JSON, CRC prefixes stripped) in one buffer: sized to
// the seal exactly when the seal knows its length, as the prefix load kept
// does, and to the file otherwise. A missing file is an empty log.
func (p *filePersister) scanResultLog(path string, seal *logPrefix, keep, flip bool) (res resultBuf, kept logPrefix, size int64, err error) {
	defer func() {
		if err == nil && seal != nil && (kept.records != seal.records || kept.chain != seal.chain) {
			err = fmt.Errorf("%w: sealed %d records (crc %s), verified %d (crc %s)",
				errSealMismatch, seal.records, seal.crcHex(), kept.records, kept.crcHex())
			res, kept = resultBuf{}, logPrefix{}
		}
	}()
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return res, kept, 0, nil
	}
	if err != nil {
		return res, kept, 0, fmt.Errorf("service: job result log: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, kept, 0, fmt.Errorf("service: job result log: %w", err)
	}
	size = fi.Size()
	flipAt := int64(-1)
	if flip && size > 0 {
		flipAt = size / 2 // simulated disk corruption mid-log
	}
	switch {
	case keep && seal != nil && seal.size > 0:
		res = resultBuf{buf: make([]byte, 0, seal.payloadBytes()), ends: make([]int, 0, seal.records)}
	case keep:
		res.buf = make([]byte, 0, size)
	}
	r := bufio.NewReader(f)
	var long []byte // a line longer than r's buffer, gathered
	for seal == nil || kept.records < seal.records {
		line, rerr := r.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if rerr != nil && rerr != io.EOF {
			return resultBuf{}, kept, size, fmt.Errorf("service: job result log: %w", rerr)
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break // end of log, or a torn tail with no newline
		}
		if off := kept.size; flipAt >= off && flipAt < off+int64(len(line)) {
			line[flipAt-off] ^= 0x04
		}
		payload, ok := decodeRecordLine(line)
		if !ok {
			break // malformed prefix or checksum mismatch
		}
		if keep {
			res.buf = append(res.buf, payload...)
			res.ends = append(res.ends, len(res.buf))
		}
		kept.records++
		kept.chain = crc32.Update(kept.chain, crcTable, payload)
		kept.size += int64(len(line))
	}
	return res, kept, size, nil
}

// jobSeq extracts the numeric sequence of a "job-N" ID (0 when malformed),
// used to restore creation order and to seed the ID counter past every
// replayed job.
func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// syncDir best-effort fsyncs a directory so a rename within it is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
