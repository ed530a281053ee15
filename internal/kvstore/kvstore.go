// Package kvstore implements the replicated state machine the paper
// evaluates: a YCSB-style key-value store over 600k records. Execution is
// deterministic — identical operation sequences produce identical state
// digests on every replica — which is what lets checkpoint and safety tests
// compare replicas by digest.
package kvstore

import (
	"encoding/binary"
	"fmt"

	"flexitrust/internal/crypto"
	"flexitrust/internal/types"
)

// OpCode enumerates state machine operations.
type OpCode uint8

// Supported operations (the YCSB core workload mix).
const (
	OpNoop OpCode = iota // no-op (view-change gap filler)
	OpRead
	OpUpdate
	OpInsert
	OpScan // short range scan
	OpRMW  // read-modify-write

	// Transactional operations (cross-shard 2PC; see txn.go). Prepare
	// installs per-key intents, Commit/Abort resolve them, TxnRead is the
	// intent-aware read that reports a pending intent explicitly.
	OpTxnPrepare
	OpTxnCommit
	OpTxnAbort
	OpTxnRead

	// Range-handoff operations (live shard rebalancing; see rangeops.go).
	// Freeze is the source-side prepare (claim + deterministic export of a
	// hash range), Install stages one export chunk on the destination; the
	// decision rides the shared OpTxnCommit/OpTxnAbort id space. TxnCompact
	// prunes decision history at or below the stability watermark.
	OpRangeFreeze
	OpRangeInstall
	OpTxnCompact

	// Read-lease operations (leader read leases; see readview.go and the
	// "Leased reads" section of the repository doc). Grant allocates the
	// next monotone lease epoch through consensus and marks it active;
	// Revoke deactivates it. OpRangeFreeze also deactivates the lease —
	// a range's ownership going into flight invalidates local serving.
	OpLeaseGrant
	OpLeaseRevoke
)

// resultOK answers every successful write. Results are read-only (a read
// returns the stored record itself), so all writes share this one.
var resultOK = []byte("OK")

// Op is one key-value operation. Encode/Decode give it a compact canonical
// wire form used both as the request payload and as the digest input.
type Op struct {
	Code  OpCode
	Key   uint64
	Value []byte
	Count uint16 // scan length
}

// Encode serializes the operation.
func (o *Op) Encode() []byte {
	buf := make([]byte, 0, 1+8+2+2+len(o.Value))
	buf = append(buf, byte(o.Code))
	buf = binary.BigEndian.AppendUint64(buf, o.Key)
	buf = binary.BigEndian.AppendUint16(buf, o.Count)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(o.Value)))
	buf = append(buf, o.Value...)
	return buf
}

// Decode parses an operation into o, returning an error on malformed input;
// a byzantine client must not be able to crash a replica. The decoded Value
// aliases b. Decoding into a caller-owned Op keeps the state machine's
// per-operation hot path allocation-free (Apply runs once per request on
// every replica).
func (o *Op) Decode(b []byte) error {
	if len(b) < 13 {
		return fmt.Errorf("kvstore: op too short (%d bytes)", len(b))
	}
	vlen := int(binary.BigEndian.Uint16(b[11:13]))
	if len(b) != 13+vlen {
		return fmt.Errorf("kvstore: op length mismatch: have %d want %d", len(b), 13+vlen)
	}
	o.Code = OpCode(b[0])
	o.Key = binary.BigEndian.Uint64(b[1:9])
	o.Count = binary.BigEndian.Uint16(b[9:11])
	o.Value = nil
	if vlen > 0 {
		o.Value = b[13 : 13+vlen]
	}
	return nil
}

// DecodeOp parses an operation, returning an error on malformed input.
func DecodeOp(b []byte) (*Op, error) {
	o := new(Op)
	if err := o.Decode(b); err != nil {
		return nil, err
	}
	return o, nil
}

// KeyHash is the canonical 64-bit mix of a store key (a splitmix64
// finalizer). It is the one hash every layer that partitions the keyspace
// must agree on — the shard router derives key→shard placement from it — so
// that routing stays deterministic across processes and releases. YCSB-style
// workloads use dense small integers as keys; the finalizer spreads them
// uniformly across the 64-bit space.
func KeyHash(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Store is the key-value state machine. It is not safe for concurrent use;
// the engine executes batches single-threaded in sequence-number order, as
// RSM semantics demand.
//
// The initial database (recordCount records, the paper uses 600k) is
// materialized lazily: a key below recordCount that has never been written
// reads as a deterministic function of the key. This keeps per-replica
// memory proportional to the write set, which is what lets the simulator
// hold 97 replicas × 600k records without preloading 97 copies.
type Store struct {
	recordCount uint64
	records     map[uint64][]byte // written keys only
	// stateDigest is a running hash chain over applied batch digests. It is
	// what checkpoints advertise: equal digests ⟺ equal histories.
	stateDigest types.Digest
	applied     uint64

	// Transactional state (cross-shard 2PC, see txn.go): pending per-key
	// intents, the keys each in-flight transaction claimed on this shard,
	// and the decisions already applied (kept so retried or late
	// Prepare/Commit/Abort operations answer deterministically instead of
	// acting twice). txnDecided is pruned below txnStable, the
	// coordinator-gossiped stability watermark: ids at or below it can no
	// longer be retried by a correct coordinator, and any operation naming
	// one answers TxnStale (OpTxnCompact advances the watermark).
	intents    map[uint64]intent
	txnKeys    map[uint64][]uint64
	txnDecided map[uint64]bool
	txnStable  uint64

	// Range-handoff state (live rebalancing, see rangeops.go): outbound
	// ranges frozen for export, inbound ranges staged for install, and the
	// intervals this store has released to other groups (operations on
	// released keys answer WrongShard deterministically).
	outbound map[uint64]HashRange
	inbound  map[uint64]*rangeStage
	released []HashRange

	// Read-lease state (deterministic half; the clock-bound half lives in
	// engine.LeaseTracker): the monotone epoch OpLeaseGrant allocates and
	// whether the latest epoch is still active. Every replica agrees on
	// both because they only change through consensus.
	leaseEpoch  uint64
	leaseActive bool

	// Read-view maintenance (see readview.go): keys whose records changed
	// since the last SyncView, and whether the next sync must rebuild the
	// mirror wholesale (after Restore or a range settlement). viewTouched
	// stays nil — and mutation tracking free — until the first SyncView.
	viewTouched map[uint64]struct{}
	viewFull    bool
}

// New creates a store whose initial state holds recordCount records with
// deterministic per-key default values, so replicas start identical without
// shipping a snapshot.
func New(recordCount int) *Store {
	return &Store{
		recordCount: uint64(recordCount),
		records:     make(map[uint64][]byte),
		intents:     make(map[uint64]intent),
		txnKeys:     make(map[uint64][]uint64),
		txnDecided:  make(map[uint64]bool),
		outbound:    make(map[uint64]HashRange),
		inbound:     make(map[uint64]*rangeStage),
	}
}

// get returns the current value of key and whether it exists.
func (s *Store) get(key uint64) ([]byte, bool) {
	if v, ok := s.records[key]; ok {
		return v, true
	}
	if key < s.recordCount {
		return defaultValue(key), true
	}
	return nil, false
}

// exists reports whether key currently exists. The range test comes first:
// a key of the initial database exists whether or not it was written, so
// most updates skip the map probe.
func (s *Store) exists(key uint64) bool {
	if key < s.recordCount {
		return true
	}
	_, ok := s.records[key]
	return ok
}

// writeRefused applies the deterministic write-admission checks shared by
// the plain write operations: a released key answers WrongShard (the
// caller's placement is stale), a key inside a frozen outbound range
// answers RangeMigrating (retry after the handoff decides), and a key under
// a transactional intent answers TxnConflict. ok is true when the write may
// proceed.
func (s *Store) writeRefused(key uint64) ([]byte, bool) {
	if s.releasedKey(key) {
		return []byte(WrongShard), false
	}
	if s.frozenOut(key) || s.stagedIn(key) {
		return []byte(RangeMigrating), false
	}
	if _, held := s.intents[key]; held {
		return []byte(TxnConflict), false
	}
	return nil, true
}

// defaultValue derives the initial value for a key.
func defaultValue(key uint64) []byte {
	v := make([]byte, 8)
	binary.BigEndian.PutUint64(v, key^0x5bd1e995)
	return v
}

// Applied returns the number of operations applied so far.
func (s *Store) Applied() uint64 { return s.applied }

// WrittenKeys returns the number of explicitly written records.
func (s *Store) WrittenKeys() int { return len(s.records) }

// Apply executes a single operation and returns its result bytes. Malformed
// operations yield an error result (deterministically) rather than failure:
// all replicas must produce the same answer for any input.
func (s *Store) Apply(opBytes []byte) []byte {
	s.applied++
	var op Op // stack-decoded: Apply is the per-request hot path
	if err := op.Decode(opBytes); err != nil {
		return []byte("ERR")
	}
	switch op.Code {
	case OpNoop:
		return nil
	case OpTxnPrepare, OpTxnCommit, OpTxnAbort, OpTxnRead:
		return s.applyTxnOp(&op)
	case OpRangeFreeze:
		return s.applyRangeFreeze(op.Value)
	case OpRangeInstall:
		return s.applyRangeInstall(op.Value)
	case OpTxnCompact:
		return s.applyTxnCompact(op.Value)
	case OpLeaseGrant:
		// The payload carries the lease duration (ns) for the hosting
		// substrate; the store only allocates the epoch and answers with
		// it, so the granting primary learns which epoch it now holds.
		if len(op.Value) != 8 {
			return []byte("ERR")
		}
		s.leaseEpoch++
		s.leaseActive = true
		return binary.BigEndian.AppendUint64(nil, s.leaseEpoch)
	case OpLeaseRevoke:
		s.leaseActive = false
		return resultOK
	case OpRead:
		if s.releasedKey(op.Key) {
			return []byte(WrongShard)
		}
		if s.stagedIn(op.Key) {
			return []byte(RangeMigrating)
		}
		if v, ok := s.get(op.Key); ok {
			return v
		}
		return []byte("NOTFOUND")
	case OpUpdate:
		if res, ok := s.writeRefused(op.Key); !ok {
			return res
		}
		if !s.exists(op.Key) {
			return []byte("NOTFOUND")
		}
		s.records[op.Key] = append([]byte(nil), op.Value...)
		s.touch(op.Key)
		return resultOK
	case OpInsert:
		if res, ok := s.writeRefused(op.Key); !ok {
			return res
		}
		s.records[op.Key] = append([]byte(nil), op.Value...)
		s.touch(op.Key)
		return resultOK
	case OpScan:
		// Ownership is checked on the start key only: scans are routed by
		// it, and a scan straddling a placement boundary is already
		// approximate by design.
		if s.releasedKey(op.Key) {
			return []byte(WrongShard)
		}
		if s.stagedIn(op.Key) {
			return []byte(RangeMigrating)
		}
		// Deterministic short scan over the contiguous key space. Keys whose
		// interval was released (their records were deleted on handoff
		// commit — the lazy default would fabricate a value the destination
		// may have diverged from) or is inbound-staged (not owned yet) are
		// omitted rather than counted.
		n := int(op.Count)
		if n > 64 {
			n = 64
		}
		found := 0
		for k := op.Key; k < op.Key+uint64(n); k++ {
			if s.releasedKey(k) || s.stagedIn(k) {
				continue
			}
			if s.exists(k) {
				found++
			}
		}
		out := make([]byte, 4)
		binary.BigEndian.PutUint32(out, uint32(found))
		return out
	case OpRMW:
		if res, ok := s.writeRefused(op.Key); !ok {
			return res
		}
		v, ok := s.get(op.Key)
		if !ok {
			return []byte("NOTFOUND")
		}
		nv := make([]byte, len(v))
		copy(nv, v)
		for i := range nv {
			if i < len(op.Value) {
				nv[i] ^= op.Value[i]
			}
		}
		s.records[op.Key] = nv
		s.touch(op.Key)
		return resultOK
	default:
		return []byte("ERR")
	}
}

// ApplyBatch executes every request in the batch in order and folds the
// batch digest into the state digest. It returns per-request results.
func (s *Store) ApplyBatch(b *types.Batch) []types.Result {
	results := make([]types.Result, len(b.Requests))
	for i, r := range b.Requests {
		results[i] = types.Result{Client: r.Client, ReqNo: r.ReqNo, Value: s.Apply(r.Op)}
	}
	s.stateDigest = crypto.HistoryDigest(s.stateDigest, b.Digest)
	return results
}

// StateDigest returns the current history digest.
func (s *Store) StateDigest() types.Digest { return s.stateDigest }

// Snapshot captures the store's written state for state-transfer and
// rollback in speculative protocols.
type Snapshot struct {
	recordCount uint64
	records     map[uint64][]byte
	stateDigest types.Digest
	applied     uint64
	intents     map[uint64]intent
	txnKeys     map[uint64][]uint64
	txnDecided  map[uint64]bool
	txnStable   uint64
	outbound    map[uint64]HashRange
	inbound     map[uint64]*rangeStage
	released    []HashRange
	leaseEpoch  uint64
	leaseActive bool
}

// Snapshot copies the current state, transactional intent and range-handoff
// tables included — a speculative rollback that forgot an installed intent,
// a decision, or a frozen/released range would let replicas diverge on a
// later Prepare or handoff retry.
func (s *Store) Snapshot() *Snapshot {
	cp := make(map[uint64][]byte, len(s.records))
	for k, v := range s.records {
		cp[k] = v // values are copy-on-write (Apply always allocates anew)
	}
	ins := make(map[uint64]intent, len(s.intents))
	for k, in := range s.intents {
		ins[k] = in // intent values are immutable once installed
	}
	tk := make(map[uint64][]uint64, len(s.txnKeys))
	for id, keys := range s.txnKeys {
		tk[id] = append([]uint64(nil), keys...)
	}
	td := make(map[uint64]bool, len(s.txnDecided))
	for id, d := range s.txnDecided {
		td[id] = d
	}
	ob := make(map[uint64]HashRange, len(s.outbound))
	for id, r := range s.outbound {
		ob[id] = r
	}
	ib := make(map[uint64]*rangeStage, len(s.inbound))
	for id, st := range s.inbound {
		ib[id] = st.clone()
	}
	return &Snapshot{recordCount: s.recordCount, records: cp, stateDigest: s.stateDigest,
		applied: s.applied, intents: ins, txnKeys: tk, txnDecided: td, txnStable: s.txnStable,
		outbound: ob, inbound: ib, released: append([]HashRange(nil), s.released...),
		leaseEpoch: s.leaseEpoch, leaseActive: s.leaseActive}
}

// clone deep-copies a stage (staged values are copy-on-write once installed,
// chunk/record indexes are not).
func (st *rangeStage) clone() *rangeStage {
	cp := &rangeStage{r: st.r, chunks: make(map[uint32]bool, len(st.chunks)),
		recs: make(map[uint64][]byte, len(st.recs))}
	for c := range st.chunks {
		cp.chunks[c] = true
	}
	for k, v := range st.recs {
		cp.recs[k] = v
	}
	return cp
}

// Restore rewinds the store to a snapshot (speculative execution rollback
// after a view change drops an uncommitted suffix).
func (s *Store) Restore(snap *Snapshot) {
	s.recordCount = snap.recordCount
	s.records = make(map[uint64][]byte, len(snap.records))
	for k, v := range snap.records {
		s.records[k] = v
	}
	s.stateDigest = snap.stateDigest
	s.applied = snap.applied
	s.intents = make(map[uint64]intent, len(snap.intents))
	for k, in := range snap.intents {
		s.intents[k] = in
	}
	s.txnKeys = make(map[uint64][]uint64, len(snap.txnKeys))
	for id, keys := range snap.txnKeys {
		s.txnKeys[id] = append([]uint64(nil), keys...)
	}
	s.txnDecided = make(map[uint64]bool, len(snap.txnDecided))
	for id, d := range snap.txnDecided {
		s.txnDecided[id] = d
	}
	s.txnStable = snap.txnStable
	s.outbound = make(map[uint64]HashRange, len(snap.outbound))
	for id, r := range snap.outbound {
		s.outbound[id] = r
	}
	s.inbound = make(map[uint64]*rangeStage, len(snap.inbound))
	for id, st := range snap.inbound {
		s.inbound[id] = st.clone()
	}
	s.released = append([]HashRange(nil), snap.released...)
	s.leaseEpoch = snap.leaseEpoch
	s.leaseActive = snap.leaseActive
	// The read-view mirror may now be ahead of the store: rebuild it
	// wholesale on the next sync.
	s.viewFull = true
}

// touch records a written-key mutation for incremental read-view sync. A nil
// map means no view is attached and tracking costs nothing.
func (s *Store) touch(key uint64) {
	if s.viewTouched != nil {
		s.viewTouched[key] = struct{}{}
	}
}

// LeaseEpoch returns the last granted lease epoch and whether it is active.
func (s *Store) LeaseEpoch() (epoch uint64, active bool) { return s.leaseEpoch, s.leaseActive }
