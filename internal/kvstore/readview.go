package kvstore

import (
	"encoding/binary"
	"sync"
	"time"

	"flexitrust/internal/types"
)

// ReadView is a concurrency-safe, watermark-consistent mirror of the store's
// read-relevant state: the written records, the keys under transactional
// intents, and the hash ranges this store does not own. The replica's
// engine.Host publishes into it with Store.SyncView on the execution
// goroutine after every committed batch; the lease-read fast path consults
// it from OTHER goroutines (a transport delivery thread in the runtime),
// which is exactly why the store itself — deliberately single-threaded —
// cannot be read directly.
//
// A view at sequence S answers exactly what OpTxnRead would have answered
// had it committed at slot S: same values, same refusals. Lookup refuses
// (sending the reader down the consensus fallback) rather than guessing
// whenever the committed answer at S is not the full story — key under
// intent, range released or mid-migration, or the view still behind the
// reader's fence.
type ReadView struct {
	mu          sync.RWMutex
	seq         types.SeqNum
	recordCount uint64
	records     map[uint64][]byte
	intents     map[uint64]struct{}
	unowned     []HashRange // released ∪ inbound-staged: reads refuse here
}

// NewReadView returns an empty view (sequence 0 — nothing is servable until
// the first SyncView).
func NewReadView() *ReadView {
	return &ReadView{records: make(map[uint64][]byte), intents: make(map[uint64]struct{})}
}

// ReadStatus is the outcome of a ReadView lookup.
type ReadStatus uint8

// Lookup outcomes.
const (
	ReadOK ReadStatus = iota
	ReadNotFound
	// ReadRefused: the view cannot answer this read safely — it is behind
	// the fence, the key's range is unowned or migrating, or the key is
	// under a transactional intent. The caller falls back to consensus.
	ReadRefused
)

// Lookup answers a single-key read at-or-above fence. seq is the view's
// committed sequence at answer time (the reply watermark).
func (v *ReadView) Lookup(key uint64, fence types.SeqNum) (val []byte, seq types.SeqNum, st ReadStatus) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.seq < fence {
		return nil, v.seq, ReadRefused
	}
	if rangesContain(v.unowned, KeyHash(key)) {
		return nil, v.seq, ReadRefused
	}
	if _, held := v.intents[key]; held {
		return nil, v.seq, ReadRefused
	}
	if val, ok := v.records[key]; ok {
		return val, v.seq, ReadOK
	}
	if key < v.recordCount {
		return defaultValue(key), v.seq, ReadOK
	}
	return nil, v.seq, ReadNotFound
}

// Seq returns the view's committed sequence.
func (v *ReadView) Seq() types.SeqNum {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.seq
}

// SyncView publishes the store's post-batch state into v at committed
// sequence seq. It must be called on the execution goroutine, after the
// batch at seq has applied. The first call switches the store into
// touched-key tracking and rebuilds the mirror wholesale; later calls copy
// only the keys the intervening batches wrote. Values are shared by
// reference — Apply never mutates a stored value in place, so a published
// slice is immutable.
func (s *Store) SyncView(v *ReadView, seq types.SeqNum) {
	if v == nil {
		return
	}
	full := s.viewFull || s.viewTouched == nil
	if s.viewTouched == nil {
		s.viewTouched = make(map[uint64]struct{})
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq = seq
	v.recordCount = s.recordCount
	if full {
		v.records = make(map[uint64][]byte, len(s.records))
		for k, val := range s.records {
			v.records[k] = val
		}
		s.viewFull = false
	} else {
		for k := range s.viewTouched {
			if val, ok := s.records[k]; ok {
				v.records[k] = val
			} else {
				delete(v.records, k)
			}
		}
	}
	clear(s.viewTouched)
	// The refusal state (intent keys, unowned ranges) is small at any
	// instant; mirror it wholesale every sync rather than tracking deltas.
	v.intents = make(map[uint64]struct{}, len(s.intents))
	for k := range s.intents {
		v.intents[k] = struct{}{}
	}
	unowned := append([]HashRange(nil), s.released...)
	for _, st := range s.inbound {
		unowned = addRange(unowned, st.r)
	}
	v.unowned = unowned
}

// --- lease grant/revoke op encoding ---

// EncodeLeaseGrant builds the consensus op granting a dur-long read lease.
// Committing it allocates the next lease epoch; the result carries the
// epoch back to the submitter (see DecodeLeaseGrant).
func EncodeLeaseGrant(dur time.Duration) *Op {
	return &Op{Code: OpLeaseGrant, Value: binary.BigEndian.AppendUint64(nil, uint64(dur))}
}

// EncodeLeaseRevoke builds the consensus op deactivating the current lease
// epoch (placement changes submit it ahead of mutating ownership).
func EncodeLeaseRevoke() *Op { return &Op{Code: OpLeaseRevoke} }

// DecodeLeaseGrant parses an OpLeaseGrant result into the allocated epoch.
// ok is false for refusal/error results.
func DecodeLeaseGrant(res []byte) (epoch uint64, ok bool) {
	if len(res) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(res), true
}

// LeaseGrantDuration parses the duration payload of a decoded OpLeaseGrant.
func LeaseGrantDuration(op *Op) (time.Duration, bool) {
	if op.Code != OpLeaseGrant || len(op.Value) != 8 {
		return 0, false
	}
	return time.Duration(binary.BigEndian.Uint64(op.Value)), true
}
