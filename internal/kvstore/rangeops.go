package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Range-scoped state handoff: the store-level half of live shard
// rebalancing.
//
// A placement change moves one contiguous interval of the key-HASH space
// (every layer that partitions keys agrees on KeyHash) from a source group
// to a destination group. The handoff mirrors the two-phase transaction
// machinery and shares its decision plumbing:
//
//   - OpRangeFreeze is the source-side prepare: it claims the range under a
//     handoff id (writes to the range are refused with RangeMigrating until
//     the decision lands — reads keep being served, the source still owns
//     the data), and its deterministic result is the range EXPORT: every
//     explicitly written record whose key hash falls in the range, sorted
//     by key. Records the initial database materializes lazily need no
//     copying — both stores derive identical defaults from the key.
//
//   - OpRangeInstall is the destination-side prepare: it stages one chunk
//     of the export under the handoff id. Staged records are invisible
//     until the commit decision applies them (and are dropped whole on
//     abort), so a crashed handoff never leaks half a range.
//
//   - The decision arrives as the ordinary OpTxnCommit/OpTxnAbort carrying
//     the handoff id: commit makes the source delete the range's records
//     and mark the interval RELEASED (operations on released keys answer
//     WrongShard deterministically — the stale-epoch signal routing layers
//     retry on), while the destination applies its staged records and
//     un-releases the interval if it had given it away before. Handoff ids
//     share the transaction decision table, so retries are idempotent and
//     an abort poisons the id exactly like a transactional prepare.
//
// Everything executes through consensus, so every replica of each group
// holds the same frozen/staged/released state and the export is computed
// identically on every replica (the client's reply quorum cross-checks it).

// HashRange is a contiguous interval of the 64-bit key-hash space,
// inclusive on both ends (End = ^uint64(0) reaches the top of the space).
type HashRange struct {
	Start, End uint64
}

// Contains reports whether hash h falls inside the range.
func (r HashRange) Contains(h uint64) bool { return h >= r.Start && h <= r.End }

// Overlaps reports whether two ranges share any hash.
func (r HashRange) Overlaps(o HashRange) bool { return r.Start <= o.End && o.Start <= r.End }

// valid reports whether the range is well-formed (non-inverted; a
// single-point range Start==End is legal).
func (r HashRange) valid() bool { return r.Start <= r.End }

// Additional deterministic status results of the range-handoff and
// compaction operations.
const (
	// RangeStaged: the install chunk is staged (or already was — installs
	// are idempotent per chunk).
	RangeStaged = "STAGED"
	// RangeMigrating: the key belongs to a range frozen by an in-flight
	// handoff; writes are refused until the handoff decides.
	RangeMigrating = "MIGRATING"
	// WrongShard: the key's range was released to another group — the
	// caller's placement map is stale and it must re-route through a newer
	// epoch.
	WrongShard = "WRONGSHARD"
	// TxnStale: the operation names a transaction/handoff id at or below
	// the stability watermark; its decision history has been compacted away
	// and the retry is refused without acting.
	TxnStale = "STALE"
)

// RangeRecord is one explicitly written record of a range export.
type RangeRecord struct {
	Key   uint64
	Value []byte
}

// rangeStage is one in-flight inbound handoff's staged state.
type rangeStage struct {
	r      HashRange
	chunks map[uint32]bool
	recs   map[uint64][]byte
}

// rangeExportTag frames a successful OpRangeFreeze result ('S' + count +
// records); any other first byte is a status string.
const rangeExportTag = 'S'

// EncodeRangeFreeze builds the source-side prepare of handoff hid over r.
func EncodeRangeFreeze(hid uint64, r HashRange) *Op {
	buf := make([]byte, 0, 24)
	buf = binary.BigEndian.AppendUint64(buf, hid)
	buf = binary.BigEndian.AppendUint64(buf, r.Start)
	buf = binary.BigEndian.AppendUint64(buf, r.End)
	return &Op{Code: OpRangeFreeze, Value: buf}
}

// maxInstallValue is the largest record value one install chunk can carry:
// the Op payload bound minus the chunk header (32 bytes) and the record
// header (10 bytes). Plain writes accept values up to the raw 64KiB wire
// bound, so a record in the sliver above maxInstallValue cannot be
// exported — rebalancing such a range aborts with an error naming the key.
const maxInstallValue = maxTxnPayload - 42

// EncodeRangeInstall builds one destination-side install chunk of handoff
// hid: chunk index `chunk` carrying recs. The encoded payload must fit the
// Op wire form's 64KiB value bound — split exports with ChunkRangeRecords.
func EncodeRangeInstall(hid uint64, r HashRange, chunk uint32, recs []RangeRecord) (*Op, error) {
	size := 32
	for _, rec := range recs {
		if len(rec.Value) > maxInstallValue {
			return nil, fmt.Errorf("kvstore: handoff %d: value for key %d is %d bytes, exceeding the %d-byte install bound — the range cannot migrate while the key holds it", hid, rec.Key, len(rec.Value), maxInstallValue)
		}
		size += 10 + len(rec.Value)
	}
	if size > maxTxnPayload {
		return nil, fmt.Errorf("kvstore: handoff %d: install chunk %d bytes exceeds %d", hid, size, maxTxnPayload)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, hid)
	buf = binary.BigEndian.AppendUint64(buf, r.Start)
	buf = binary.BigEndian.AppendUint64(buf, r.End)
	buf = binary.BigEndian.AppendUint32(buf, chunk)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = binary.BigEndian.AppendUint64(buf, rec.Key)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rec.Value)))
		buf = append(buf, rec.Value...)
	}
	return &Op{Code: OpRangeInstall, Value: buf}, nil
}

// EncodeTxnCompact builds the decision-history compaction operation: prune
// transaction/handoff decisions at or below the stability watermark wm.
func EncodeTxnCompact(wm uint64) *Op {
	return &Op{Code: OpTxnCompact, Value: binary.BigEndian.AppendUint64(nil, wm)}
}

// ChunkRangeRecords splits an export into install chunks that each fit the
// Op payload bound. An empty export still yields one (empty) chunk — the
// destination must learn the handoff id and range to take part in the
// decision.
func ChunkRangeRecords(recs []RangeRecord) [][]RangeRecord {
	const budget = maxTxnPayload - 64 // header + slack
	chunks := [][]RangeRecord{}
	cur := []RangeRecord{}
	size := 0
	for _, rec := range recs {
		recSize := 10 + len(rec.Value)
		if size+recSize > budget && len(cur) > 0 {
			chunks = append(chunks, cur)
			cur, size = []RangeRecord{}, 0
		}
		cur = append(cur, rec)
		size += recSize
	}
	return append(chunks, cur)
}

// DecodeRangeExport parses an OpRangeFreeze result. ok is false when the
// result is a refusal status (CONFLICT, WRONGSHARD, MIGRATING, STALE,
// COMMITTED, ABORTED, ERR) rather than an export frame.
func DecodeRangeExport(res []byte) (recs []RangeRecord, ok bool) {
	if len(res) < 5 || res[0] != rangeExportTag {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(res[1:5]))
	rest := res[5:]
	if n > len(rest)/10 {
		return nil, false // count field exceeds what the bytes could hold
	}
	recs = make([]RangeRecord, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 10 {
			return nil, false
		}
		rec := RangeRecord{Key: binary.BigEndian.Uint64(rest[0:8])}
		vlen := int(binary.BigEndian.Uint16(rest[8:10]))
		if len(rest) < 10+vlen {
			return nil, false
		}
		rec.Value = rest[10 : 10+vlen]
		rest = rest[10+vlen:]
		recs = append(recs, rec)
	}
	if len(rest) != 0 {
		return nil, false
	}
	return recs, true
}

// --- interval set helpers (released ranges) ---

// rangesContain reports whether h falls in any of the (sorted, disjoint)
// ranges.
func rangesContain(rs []HashRange, h uint64) bool {
	for _, r := range rs {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// rangesOverlap reports whether r overlaps any of the ranges.
func rangesOverlap(rs []HashRange, r HashRange) bool {
	for _, o := range rs {
		if r.Overlaps(o) {
			return true
		}
	}
	return false
}

// addRange inserts r into the sorted disjoint set, merging overlapping and
// adjacent intervals.
func addRange(rs []HashRange, r HashRange) []HashRange {
	out := make([]HashRange, 0, len(rs)+1)
	for _, o := range rs {
		adjacent := (o.End != ^uint64(0) && o.End+1 == r.Start) || (r.End != ^uint64(0) && r.End+1 == o.Start)
		if o.Overlaps(r) || adjacent {
			if o.Start < r.Start {
				r.Start = o.Start
			}
			if o.End > r.End {
				r.End = o.End
			}
			continue
		}
		out = append(out, o)
	}
	out = append(out, r)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// subtractRange removes the interval r from the set, splitting intervals
// that straddle its ends.
func subtractRange(rs []HashRange, r HashRange) []HashRange {
	out := make([]HashRange, 0, len(rs)+1)
	for _, o := range rs {
		if !o.Overlaps(r) {
			out = append(out, o)
			continue
		}
		if o.Start < r.Start {
			out = append(out, HashRange{Start: o.Start, End: r.Start - 1})
		}
		if o.End > r.End {
			out = append(out, HashRange{Start: r.End + 1, End: o.End})
		}
	}
	return out
}

// --- apply-side handlers (called from Store.Apply with decoded ops) ---

// released reports whether the store has given the key's range away.
func (s *Store) releasedKey(key uint64) bool { return rangesContain(s.released, KeyHash(key)) }

// frozenOut reports whether the key falls in an outbound range frozen by an
// in-flight handoff.
func (s *Store) frozenOut(key uint64) bool {
	h := KeyHash(key)
	for _, r := range s.outbound {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// stagedIn reports whether the key falls in an inbound range staged by an
// in-flight handoff. The destination does not own such a range yet:
// serving reads would expose pre-handoff state, and accepting writes would
// let the commit's staged records clobber them — both refuse with
// RangeMigrating until the decision lands.
func (s *Store) stagedIn(key uint64) bool {
	h := KeyHash(key)
	for _, st := range s.inbound {
		if st.r.Contains(h) {
			return true
		}
	}
	return false
}

// applyRangeFreeze executes the source-side prepare: claim the range under
// the handoff id and answer with the deterministic export.
func (s *Store) applyRangeFreeze(payload []byte) []byte {
	if len(payload) != 24 {
		return []byte("ERR")
	}
	hid := binary.BigEndian.Uint64(payload[0:8])
	r := HashRange{Start: binary.BigEndian.Uint64(payload[8:16]), End: binary.BigEndian.Uint64(payload[16:24])}
	if hid == 0 || !r.valid() {
		return []byte("ERR")
	}
	if hid <= s.txnStable {
		return []byte(TxnStale)
	}
	if d, ok := s.txnDecided[hid]; ok {
		if d {
			return []byte(TxnCommitted)
		}
		return []byte(TxnAborted)
	}
	if prev, ok := s.outbound[hid]; ok {
		if prev != r {
			return []byte("ERR")
		}
		return s.exportRange(r) // idempotent re-export: the range is frozen, so it is stable
	}
	if rangesOverlap(s.released, r) {
		return []byte(WrongShard)
	}
	for _, o := range s.outbound {
		if o.Overlaps(r) {
			return []byte(TxnConflict)
		}
	}
	// An inbound stage means this store does not own the interval yet: the
	// staged records only become visible when that handoff commits. Freezing
	// over it would export the pre-handoff state (losing the migrated
	// records on the new destination) or, worse, race the commit into
	// doubly-owned keys — refuse until the earlier handoff decides.
	for _, st := range s.inbound {
		if st.r.Overlaps(r) {
			return []byte(RangeMigrating)
		}
	}
	// Keys under a pending transaction intent cannot migrate: the 2PC
	// decision must land on the store that owns them.
	for k := range s.intents {
		if r.Contains(KeyHash(k)) {
			return []byte(TxnConflict)
		}
	}
	s.outbound[hid] = r
	// A frozen range's ownership is in flight: deactivate the read lease so
	// no replica keeps serving local reads over keys it may be giving away.
	s.leaseActive = false
	return s.exportRange(r)
}

// exportRange serializes the written records whose hash falls in r, sorted
// by key (deterministic across replicas).
func (s *Store) exportRange(r HashRange) []byte {
	keys := make([]uint64, 0)
	for k := range s.records {
		if r.Contains(KeyHash(k)) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := []byte{rangeExportTag}
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.BigEndian.AppendUint64(out, k)
		out = binary.BigEndian.AppendUint16(out, uint16(len(s.records[k])))
		out = append(out, s.records[k]...)
	}
	return out
}

// applyRangeInstall executes the destination-side prepare: stage one chunk.
func (s *Store) applyRangeInstall(payload []byte) []byte {
	if len(payload) < 32 {
		return []byte("ERR")
	}
	hid := binary.BigEndian.Uint64(payload[0:8])
	r := HashRange{Start: binary.BigEndian.Uint64(payload[8:16]), End: binary.BigEndian.Uint64(payload[16:24])}
	chunk := binary.BigEndian.Uint32(payload[24:28])
	n := int(binary.BigEndian.Uint32(payload[28:32]))
	if hid == 0 || !r.valid() {
		return []byte("ERR")
	}
	if hid <= s.txnStable {
		return []byte(TxnStale)
	}
	if d, ok := s.txnDecided[hid]; ok {
		if d {
			return []byte(TxnCommitted)
		}
		return []byte(TxnAborted)
	}
	// Parse and validate the whole chunk before touching any state: ops are
	// attacker-reachable (they execute for any client), and a stage
	// registered for a malformed chunk would lock the claimed range behind
	// RangeMigrating under a handoff id that may never be decided. The count
	// field is bounded by what the payload could possibly hold before the
	// allocation trusts it.
	rest := payload[32:]
	if n > len(rest)/10 {
		return []byte("ERR")
	}
	recs := make([]RangeRecord, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 10 {
			return []byte("ERR")
		}
		rec := RangeRecord{Key: binary.BigEndian.Uint64(rest[0:8])}
		vlen := int(binary.BigEndian.Uint16(rest[8:10]))
		if len(rest) < 10+vlen {
			return []byte("ERR")
		}
		rec.Value = rest[10 : 10+vlen]
		rest = rest[10+vlen:]
		recs = append(recs, rec)
	}
	if len(rest) != 0 {
		return []byte("ERR")
	}
	st := s.inbound[hid]
	if st == nil {
		st = &rangeStage{r: r, chunks: make(map[uint32]bool), recs: make(map[uint64][]byte)}
		s.inbound[hid] = st
	} else if st.r != r {
		return []byte("ERR")
	}
	if st.chunks[chunk] {
		return []byte(RangeStaged) // resent chunk: idempotent
	}
	st.chunks[chunk] = true
	for _, rec := range recs {
		if !r.Contains(KeyHash(rec.Key)) {
			continue // a record outside the claimed range never installs
		}
		st.recs[rec.Key] = append([]byte(nil), rec.Value...)
	}
	return []byte(RangeStaged)
}

// settleRanges applies the handoff side of a decision: the source releases
// (or unfreezes) its outbound range, the destination applies (or drops) its
// staged records. Called from applyDecision under the shared id space.
func (s *Store) settleRanges(txid uint64, commit bool) {
	if r, ok := s.outbound[txid]; ok {
		if commit {
			for k := range s.records {
				if r.Contains(KeyHash(k)) {
					delete(s.records, k)
				}
			}
			s.released = addRange(s.released, r)
			s.viewFull = true // record set changed wholesale
		}
		delete(s.outbound, txid)
	}
	if st, ok := s.inbound[txid]; ok {
		if commit {
			for k, v := range st.recs {
				s.records[k] = v
			}
			s.released = subtractRange(s.released, st.r)
			s.viewFull = true
		}
		delete(s.inbound, txid)
	}
}

// applyTxnCompact prunes decided transaction/handoff ids at or below the
// stability watermark. After compaction any operation naming a pruned id
// answers TxnStale — refused safely rather than re-acted.
func (s *Store) applyTxnCompact(payload []byte) []byte {
	if len(payload) != 8 {
		return []byte("ERR")
	}
	wm := binary.BigEndian.Uint64(payload)
	if wm > s.txnStable {
		s.txnStable = wm
		for id := range s.txnDecided {
			if id <= wm {
				delete(s.txnDecided, id)
			}
		}
	}
	return resultOK
}

// ReleasedRanges returns the store's released intervals (tests).
func (s *Store) ReleasedRanges() []HashRange { return append([]HashRange(nil), s.released...) }

// TxnStableWatermark returns the store's compaction watermark (tests).
func (s *Store) TxnStableWatermark() uint64 { return s.txnStable }
