// Package protocols is the registry of the protocol variants the evaluation
// compares, one row per variant in the figures' order: the protocol package's
// own Meta and New. Opbft-ea and the o-variants are a row's Meta renamed with
// OutOfOrder flipped. Every protocol list in the repository is read from this
// table, and every fact beyond Meta is derived from Meta here, once: Parallel
// is OutOfOrder, KeepLog is the trusted abstraction "log", HostSequenced is a
// trusted component that is not primary-only. Names match ignoring case and
// hyphens: "Flexi-BFT", "flexi-bft" and "flexibft" name one row.
package protocols

import (
	"fmt"
	"slices"
	"strings"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/protocols/minbft"
	"flexitrust/internal/protocols/minzz"
	"flexitrust/internal/protocols/pbft"
	"flexitrust/internal/protocols/pbftea"
	"flexitrust/internal/protocols/zyzzyva"
)

// Variant is one row: a protocol as the evaluation runs it.
type Variant struct {
	Meta engine.Meta
	// New constructs one replica's instance.
	New func(engine.Config) engine.Protocol
}

// variants is the evaluation's lineup (Section 9.2): two bft protocols, the
// trust-bft ones with the Opbft-ea variant, the two FlexiTrust protocols and
// their sequential o-ablations.
var variants = []Variant{
	{pbft.Meta, ctor(pbft.New)},
	{zyzzyva.Meta, ctor(zyzzyva.New)},
	{pbftea.Meta, ctor(pbftea.New)},
	{ablation(pbftea.Meta, "Opbft-ea", true), ctor(pbftea.New)},
	{minbft.Meta, ctor(minbft.New)},
	{minzz.Meta, ctor(minzz.New)},
	{flexibft.Meta, ctor(flexibft.New)},
	{flexizz.Meta, ctor(flexizz.New)},
	{ablation(flexibft.Meta, "oFlexi-BFT", false), ctor(flexibft.New)},
	{ablation(flexizz.Meta, "oFlexi-ZZ", false), ctor(flexizz.New)},
}

// ctor adapts a package's New to the engine's constructor type.
func ctor[P engine.Protocol](mk func(engine.Config) P) func(engine.Config) engine.Protocol {
	return func(cfg engine.Config) engine.Protocol { return mk(cfg) }
}

// ablation is m's protocol under name, with instances overlapping or not.
func ablation(m engine.Meta, name string, outOfOrder bool) engine.Meta {
	m.Name, m.OutOfOrder = name, outOfOrder
	return m
}

// All returns every row in the evaluation's order.
func All() []Variant { return slices.Clone(variants) }

// Names lists the rows' names in order.
func Names() []string {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Meta.Name
	}
	return names
}

// Key is the form names are matched in: lower case, hyphens dropped.
func Key(name string) string { return strings.ToLower(strings.ReplaceAll(name, "-", "")) }

// Lookup finds the row whose name matches name ignoring case and hyphens.
func Lookup(name string) (Variant, error) {
	for _, v := range variants {
		if Key(v.Meta.Name) == Key(name) {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("protocols: unknown protocol %q (have %s)", name, strings.Join(Names(), ", "))
}

// Parallel is engine.Config's Parallel: the o-variants and the trust-bft
// protocols other than Opbft-ea run one instance at a time.
func (v Variant) Parallel() bool { return v.Meta.OutOfOrder }

// Replies is the client's reply rule for the row at group size n and fault
// threshold f (engine.Replies over Meta.ClientReplies). Every client reads
// it: the public API's, cmd/client's and the simulator's.
func (v Variant) Replies(n, f int) engine.ReplyRule {
	return engine.Replies(n, f, v.Meta.ClientReplies(n, f))
}

// KeepLog reports whether the trusted components must store appended digests
// for Lookup (the attested-log protocols).
func (v Variant) KeepLog() bool { return v.Meta.TrustedAbstraction == "log" }

// HostSequenced reports whether a deployment binds a co-located transaction
// coordinator's counter to the host-sequenced (USIG-style) stream discipline:
// the trust-bft protocols attest one totally-ordered stream per machine, and
// the coordinator's decisions join it. FlexiTrust deployments use
// internally-incremented per-namespace counters everywhere, the coordinator's
// decision counter included.
func (v Variant) HostSequenced() bool {
	return v.Meta.TrustedAbstraction != "none" && !v.Meta.PrimaryOnlyTC
}
