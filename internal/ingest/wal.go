package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
)

// The write-ahead log is one append-only binary segment:
//
//	magic   "VCWAL\x01"                                  (6 bytes)
//	record  kind(u8) | plen(u32 LE) | payload | crc(u32 LE)
//
// The CRC (IEEE) covers kind, plen and payload, so a torn tail — a crash
// mid-write — is detected and truncated away on the next open instead of
// poisoning replay. A delta payload is
//
//	seq(u64 LE) | rank(u16 LE) | width(u16 LE) | coords(u32 LE × rank) |
//	vals(float64 bits LE × width)
//
// Replay semantics are replay-all: the log is the full delta history since
// the base cube was built, and recovery rebuilds the engine from its source
// relation and re-applies every record. There are no checkpoints; pairing a
// WAL with a durable element store that already absorbed the deltas
// (DiskDir) would double-apply and is rejected by the engine wiring.

var walMagic = []byte("VCWAL\x01")

const (
	recDelta byte = 1

	// maxPayload bounds one record's payload so a corrupt length field
	// cannot force a huge allocation during replay.
	maxPayload = 1 << 24
)

// WALOptions configures a write-ahead log segment.
type WALOptions struct {
	// Fsync syncs the file after every append. Off, durability is the OS
	// page cache's (process crashes lose nothing, machine crashes may lose
	// the tail — never corrupt it).
	Fsync bool
}

// WAL is an append-only, crash-replayable delta log. It has no lock:
// callers serialise Append (and LastSeq and Close against it). Bytes alone
// may be read concurrently with Append — a stats scrape must not wait on the
// write path.
type WAL struct {
	f     *os.File
	path  string
	fsync bool
	seq   uint64        // last sequence number appended (or recovered)
	bytes atomic.Uint64 // bytes appended this process lifetime
}

// OpenWAL opens (or creates) the segment at path, scans existing records —
// invoking replay, when non-nil, for each — truncates any torn tail, and
// positions for append. The returned WAL continues the recovered sequence
// numbering.
func OpenWAL(path string, opts WALOptions, replay func(Delta) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: opening WAL: %w", err)
	}
	w := &WAL{f: f, path: path, fsync: opts.Fsync}
	if err := w.recover(replay); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recover scans the segment from the start: validates the magic (writing it
// into an empty file), replays every intact record, and truncates the file
// at the first torn or corrupt one.
func (w *WAL) recover(replay func(Delta) error) error {
	info, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("ingest: stat WAL: %w", err)
	}
	if info.Size() == 0 {
		if _, err := w.f.Write(walMagic); err != nil {
			return fmt.Errorf("ingest: writing WAL magic: %w", err)
		}
		return nil
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(w.f, magic); err != nil || string(magic) != string(walMagic) {
		return fmt.Errorf("ingest: %s is not a WAL segment", w.path)
	}
	good := int64(len(walMagic))
	head := make([]byte, 5)
	for {
		if _, err := io.ReadFull(w.f, head); err != nil {
			break // clean EOF, or torn header: truncate at good either way
		}
		kind := head[0]
		plen := binary.LittleEndian.Uint32(head[1:5])
		if plen > maxPayload {
			break
		}
		body := make([]byte, int(plen)+4)
		if _, err := io.ReadFull(w.f, body); err != nil {
			break
		}
		sum := crc32.ChecksumIEEE(head)
		sum = crc32.Update(sum, crc32.IEEETable, body[:plen])
		if binary.LittleEndian.Uint32(body[plen:]) != sum {
			break
		}
		if kind == recDelta {
			d, err := decodeDelta(body[:plen])
			if err != nil {
				break
			}
			if d.Seq > w.seq {
				w.seq = d.Seq
			}
			if replay != nil {
				if err := replay(d); err != nil {
					return fmt.Errorf("ingest: replaying WAL record seq %d: %w", d.Seq, err)
				}
			}
		}
		// Unknown kinds are skipped (forward compatibility), but only past a
		// valid CRC — corruption still truncates.
		good += int64(len(head) + len(body))
	}
	if err := w.f.Truncate(good); err != nil {
		return fmt.Errorf("ingest: truncating torn WAL tail: %w", err)
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("ingest: seeking WAL append position: %w", err)
	}
	return nil
}

// Append assigns the next sequence number to d, writes the record, and
// returns the assigned sequence. The write is a single f.Write (atomic with
// respect to replay's CRC check: a torn write truncates), synced when the
// WAL was opened with Fsync. The caller's slices are not retained.
func (w *WAL) Append(d Delta) (uint64, error) {
	if err := d.validate(); err != nil {
		return 0, err
	}
	w.seq++
	d.Seq = w.seq
	payload := encodeDelta(d)
	rec := make([]byte, 0, 5+len(payload)+4)
	rec = append(rec, recDelta)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	if _, err := w.f.Write(rec); err != nil {
		return 0, fmt.Errorf("ingest: appending WAL record: %w", err)
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("ingest: syncing WAL: %w", err)
		}
	}
	w.bytes.Add(uint64(len(rec)))
	return d.Seq, nil
}

// LastSeq returns the last appended (or recovered) sequence number.
func (w *WAL) LastSeq() uint64 { return w.seq }

// Bytes returns the bytes appended by this process (recovery excluded).
func (w *WAL) Bytes() uint64 { return w.bytes.Load() }

// Sync forces the segment to stable storage.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close syncs and closes the segment.
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func encodeDelta(d Delta) []byte {
	b := make([]byte, 0, 12+4*len(d.Idx)+8*len(d.Vals))
	b = binary.LittleEndian.AppendUint64(b, d.Seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(d.Idx)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(d.Vals)))
	for _, v := range d.Idx {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, v := range d.Vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func decodeDelta(b []byte) (Delta, error) {
	if len(b) < 12 {
		return Delta{}, fmt.Errorf("ingest: short delta payload")
	}
	d := Delta{Seq: binary.LittleEndian.Uint64(b)}
	rank := int(binary.LittleEndian.Uint16(b[8:]))
	width := int(binary.LittleEndian.Uint16(b[10:]))
	if rank == 0 || width == 0 || len(b) != 12+4*rank+8*width {
		return Delta{}, fmt.Errorf("ingest: malformed delta payload")
	}
	d.Idx = make([]int, rank)
	off := 12
	for m := range d.Idx {
		d.Idx[m] = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	d.Vals = make([]float64, width)
	for i := range d.Vals {
		d.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return d, nil
}
