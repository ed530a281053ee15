package shard

import (
	"context"
	"sync"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// leaseReadTimeout bounds one leased read round trip. A primary that does
// not answer within it (down, partitioned, overloaded) costs the caller this
// much before the consensus fallback — deliberately far below any client
// request timeout.
const leaseReadTimeout = 50 * time.Millisecond

// groupLease is the cluster's one lease holder for one group, shared by every
// Session: the lease is the PRIMARY's (a grant bumps one replicated epoch and
// supersedes the last), so the client side keeps one binding per group, not
// one per reader. The decisions are engine.LeaseHolder's; this type adds what
// the goroutine runtime needs around them — a lock, the wall clock, and the
// grant itself, which runs through consensus either on the reader that found
// no lease (synchronously) or ahead of expiry on a goroutine of the cluster's
// (the first read past the lease's half-life starts it; an idle cluster
// grants nothing).
type groupLease struct {
	c *Cluster
	g int

	mu     sync.Mutex
	h      *engine.LeaseHolder
	done   chan struct{} // closed when the grant in flight finishes; nil with none
	closed bool          // cluster stopping: no new renewals
}

// leaseMetrics are the lease instruments, resolved once per cluster so the
// read path never touches the registry's lock.
type leaseMetrics struct {
	readLatency *obs.Histogram
	grants      *obs.Counter
	fallbacks   *obs.Counter
	byReason    map[string]*obs.Counter
}

// leaseFallbackReasons are the causes lease_fallbacks_total is split by.
var leaseFallbackReasons = []string{
	obs.LeaseFallbackNoLease, obs.LeaseFallbackGrantInFlight, obs.LeaseFallbackBehindFence,
	obs.LeaseFallbackRefused, obs.LeaseFallbackBindingMismatch, obs.LeaseFallbackTimeout,
}

func newLeaseMetrics(r *obs.Registry) leaseMetrics {
	m := leaseMetrics{
		readLatency: r.Histogram(obs.MLeaseReadLatency),
		grants:      r.Counter(obs.MLeaseGrants),
		fallbacks:   r.Counter(obs.MLeaseFallbacks),
		byReason:    make(map[string]*obs.Counter),
	}
	for _, reason := range leaseFallbackReasons {
		m.byReason[reason] = r.Counter(obs.ReasonLabel(obs.MLeaseFallbacks, reason))
	}
	return m
}

// fallback counts one leased-read attempt that fell back to consensus.
func (m *leaseMetrics) fallback(reason string) {
	m.fallbacks.Inc()
	m.byReason[reason].Inc()
}

// now is the holder's clock: time since the cluster booted.
func (l *groupLease) now() time.Duration { return time.Since(l.c.start) }

// binding returns a lease binding reads may go out under. With none usable,
// the first caller grants one through consensus and waits for it; callers that
// find that grant in flight fall back this once rather than queue behind it.
// With one usable but past half its life, the caller that notices starts the
// renewal on a cluster goroutine and reads on under the old binding.
func (l *groupLease) binding(ctx context.Context, s *Session) (engine.LeaseBinding, bool) {
	l.mu.Lock()
	now := l.now()
	if b, ok := l.h.Usable(now); ok {
		renew := !l.closed && l.h.RenewalDue(now) && l.beginGrant()
		if renew {
			l.c.leaseWG.Add(1)
		}
		l.mu.Unlock()
		if renew {
			go func() {
				defer l.c.leaseWG.Done()
				l.grant(l.c.leaseCtx, s)
			}()
		}
		return b, true
	}
	if !l.beginGrant() {
		l.mu.Unlock()
		l.c.leaseM.fallback(obs.LeaseFallbackGrantInFlight)
		return engine.LeaseBinding{}, false
	}
	l.mu.Unlock()
	l.grant(ctx, s)
	l.mu.Lock()
	b, ok := l.h.Usable(l.now())
	l.mu.Unlock()
	if !ok {
		l.c.leaseM.fallback(obs.LeaseFallbackNoLease)
	}
	return b, ok
}

// beginGrant claims the holder's grant slot and opens the channel that
// announces the grant's end (l.mu held); the claimant must call grant.
func (l *groupLease) beginGrant() bool {
	if !l.h.BeginGrant() {
		return false
	}
	l.done = make(chan struct{})
	return true
}

// grant commits one OpLeaseGrant through session s and installs the binding
// it committed under. The caller holds the grant slot (beginGrant). The grant is
// an ordinary committed op: every replica's store bumps the lease epoch
// deterministically, and the primary that executes it arms its clock-bound
// tracker with one attested counter access.
func (l *groupLease) grant(ctx context.Context, s *Session) {
	// The client-side lifetime is anchored here, at submission: the primary
	// arms its tracker when it EXECUTES the grant, later than this and
	// earlier than the commit is observed back here, so a lifetime anchored
	// after the commit would outlast the primary's by one commit latency.
	submitted := l.now()
	res, _, view, err := s.submitShardSeq(ctx, l.g, kvstore.EncodeLeaseGrant(l.h.Duration()))
	epoch, decoded := kvstore.DecodeLeaseGrant(res)

	l.mu.Lock()
	if err == nil && decoded {
		l.h.Install(view, epoch, submitted)
		l.c.leaseM.grants.Inc()
	} else {
		l.h.GrantFailed()
	}
	close(l.done)
	l.done = nil
	l.mu.Unlock()
}

// accept judges reply under the holder's lock; the second result is the
// in-flight grant's completion channel when the verdict is LeaseRenewing.
func (l *groupLease) accept(reply *types.LeaseReadReply, sent uint64, fence types.SeqNum) (engine.LeaseVerdict, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Accept(reply, sent, fence, l.now(), l.attested), l.done
}

// attested verifies that the serving primary holds the grant attestation:
// the trusted counter's proof over the (namespace, view, epoch, duration)
// binding. The holder asks once per lease epoch — the fast path pays one HMAC
// check per grant, not per read.
func (l *groupLease) attested(reply *types.LeaseReadReply) bool {
	return engine.GrantAttested(reply, uint16(l.g+1), l.h.Duration(), l.c.groups[l.g].Runtime().Auth.Verify)
}

// drop stops sending reads under the binding of the given epoch.
func (l *groupLease) drop(epoch uint64) {
	l.mu.Lock()
	l.h.Drop(epoch)
	l.mu.Unlock()
}

// invalidate drops whatever binding is held (placement epoch flip).
func (l *groupLease) invalidate() {
	l.mu.Lock()
	l.h.Invalidate()
	l.mu.Unlock()
}

// close refuses new renewals; Cluster.Stop then cancels and awaits the one
// that may be in flight.
func (l *groupLease) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// leasedGet attempts the leased fast path for one key: ask the believed
// lease-holding primary directly, no consensus. ok is false whenever the
// caller must fall back to a consensus read — lease missing or expired, group
// not Healthy, the primary refused (unowned range, pending intent), or the
// reply failed the holder's acceptance rule. found distinguishes a served
// NOTFOUND from a served value.
func (s *Session) leasedGet(ctx context.Context, key uint64) (val []byte, found, ok bool) {
	val, _, found, ok = s.leasedGetSeq(ctx, key)
	return val, found, ok
}

// leasedGetSeq is leasedGet exposing the watermark the read was served at
// (MultiGet's version vector needs it).
func (s *Session) leasedGetSeq(ctx context.Context, key uint64) (val []byte, seq types.SeqNum, found, ok bool) {
	if s.c.leases == nil {
		return nil, 0, false, false
	}
	g := s.placement().ShardFor(key)
	// Health gate: a mid-election or stalled group never serves leased reads
	// — its lease is either revoked already or about to be.
	if s.c.mon.Check(g).State != GroupHealthy {
		return nil, 0, false, false
	}
	l := s.c.leases[g]
	b, have := l.binding(ctx, s)
	if !have {
		return nil, 0, false, false
	}
	// Fence: the group's commit watermark observed before the read is
	// issued. The primary must answer at or above it, so any write this
	// process saw commit is visible — the linearizability anchor. A primary
	// that has not executed that far yet (the commit was seen from f+1
	// backups) holds the read until it has, rather than refusing it.
	fence := s.c.groups[g].Watermark()
	start := time.Now()
	reply, err := s.clients[g].LeaseRead(ctx, b.Primary, key, fence, leaseReadTimeout)
	if err != nil {
		l.drop(b.Epoch)
		s.c.leaseM.fallback(obs.LeaseFallbackTimeout)
		return nil, 0, false, false
	}
	verdict, renewal := l.accept(reply, b.Epoch, fence)
	if verdict == engine.LeaseRenewing {
		// Served under the renewal this side has not seen commit yet: wait
		// for it to land, then judge the same reply against what it installed.
		wait := time.NewTimer(leaseReadTimeout)
		select {
		case <-renewal:
			verdict, _ = l.accept(reply, b.Epoch, fence)
		case <-wait.C:
		case <-ctx.Done():
		}
		wait.Stop()
	}
	switch verdict {
	case engine.LeaseAccepted:
		s.c.leaseM.readLatency.ObserveDuration(time.Since(start))
		return reply.Value, reply.Watermark, reply.Status == types.LeaseReadOK, true
	case engine.LeaseGone:
		s.c.leaseM.fallback(obs.LeaseFallbackNoLease)
	case engine.LeaseBehindFence:
		s.c.leaseM.fallback(obs.LeaseFallbackBehindFence)
	case engine.LeaseRefused:
		s.c.leaseM.fallback(obs.LeaseFallbackRefused)
	default:
		s.c.leaseM.fallback(obs.LeaseFallbackBindingMismatch)
	}
	return nil, 0, false, false
}

// multiGetLeased is MultiGet's one-shard short-circuit: when every key maps
// to the same healthy group under the current placement (and leases are on),
// the keys are served through the leased fast path with no fan-out machinery
// — no partition map, result channel, or per-key goroutines. It fills
// values/versions/touched in place and returns the keys the fast path could
// not serve (refused, lease missing); handled is false when the short-circuit
// does not apply at all and the caller must run the general path over the
// full key set.
func (s *Session) multiGetLeased(ctx context.Context, span *obs.Span, keys []uint64,
	values map[uint64]kvstore.ReadResult, versions ShardVector, touched map[int]bool) (handled bool, rest []uint64) {
	if s.c.leases == nil || len(keys) == 0 {
		return false, keys
	}
	pm := s.placement()
	g := pm.ShardFor(keys[0])
	for _, k := range keys[1:] {
		if pm.ShardFor(k) != g {
			return false, keys
		}
	}
	if s.c.mon.Check(g).State != GroupHealthy {
		return false, keys
	}
	// The short-circuit IS the fan-out measurement for this call: one shard.
	s.c.opM.fanout.Observe(1)
	span.Annotate("single-shard leased read: %d keys on group %d", len(keys), g)
	for _, k := range keys {
		val, seq, found, ok := s.leasedGetSeq(ctx, k)
		if !ok {
			rest = append(rest, k)
			continue
		}
		touched[g] = true
		if seq > versions[g] {
			versions[g] = seq
		}
		values[k] = kvstore.ReadResult{Found: found, Value: val}
	}
	if len(rest) > 0 {
		span.Annotate("%d keys fell back to the fan-out path", len(rest))
	}
	return true, rest
}
