// Package repro is the public facade of the inconsistency-principled data
// management kernel built after "Principles for Inconsistency" (Finkelstein,
// Brendle, Jacobs; CIDR 2009). It re-exports the kernel and the vocabulary
// types applications need; the substrates live under internal/.
//
// A minimal program:
//
//	k, err := repro.Bootstrap(repro.Options{Node: "demo", Units: 2}, repro.StandardTypes()...)
//	if err != nil { ... }
//	defer k.Close()
//	k.Update(repro.Key{Type: "Account", ID: "A"}, repro.Delta("balance", 100))
//	state, _ := k.Read(repro.Key{Type: "Account", ID: "A"})
//
// See README.md for the quickstart, the examples/ directory for complete
// scenarios, DESIGN.md for the implementation walkthrough and EXPERIMENTS.md
// for the benchmark suite.
package repro

import (
	"repro/internal/apology"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/migrate"
	"repro/internal/process"
	"repro/internal/queue"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Kernel is the inconsistency-principled data management kernel.
type Kernel = core.Kernel

// Options configure a Kernel.
type Options = core.Options

// MultiWrite is one entity write inside a multi-entity request.
type MultiWrite = core.MultiWrite

// ReplicationOptions configure WAL-shipped replication of a kernel's units
// to standby replicas (Options.Replication); see internal/replica for the
// ack modes and transport contract.
type ReplicationOptions = core.ReplicationOptions

// ReplicaStats describes a kernel's replication posture and shipping
// progress (Kernel.ReplicaStats).
type ReplicaStats = core.ReplicaStats

// Health describes a kernel's degraded/overload posture (Kernel.Health):
// degraded read-only units, admission-control counters and standby circuit
// breaker states.
type Health = core.Health

// UnitHealth is one serialization unit's entry in Health.
type UnitHealth = core.UnitHealth

// SyncMode selects when the write-ahead log forces appended bytes to stable
// storage (Options.Fsync, meaningful with Options.DataDir).
type SyncMode = storage.SyncMode

// Write-ahead log sync modes.
const (
	// SyncOS leaves flushing to the page cache (fast; a crash may lose the
	// most recent commits, recovery truncates the torn tail).
	SyncOS = storage.SyncOS
	// SyncAlways fsyncs every commit cycle.
	SyncAlways = storage.SyncAlways
)

// Key identifies an entity instance.
type Key = entity.Key

// Type declares an entity type.
type Type = entity.Type

// Field declares one entity attribute.
type Field = entity.Field

// ChildCollection declares a hierarchical child set.
type ChildCollection = entity.ChildCollection

// State is the materialised current value of an entity.
type State = entity.State

// Fields is an attribute map.
type Fields = entity.Fields

// Op is one operation descriptor (principle 2.8).
type Op = entity.Op

// Warning describes a constraint violation accepted as a managed exception.
type Warning = entity.Warning

// Txn is one focused transaction.
type Txn = txn.Txn

// CommitResult describes a successful commit.
type CommitResult = txn.CommitResult

// Event is a business event carried between process steps.
type Event = queue.Event

// ProcessDefinition declares a business process as steps connected by events.
type ProcessDefinition = process.Definition

// StepContext is passed to process step handlers.
type StepContext = process.StepContext

// Promise is a tentative business commitment (principle 2.9).
type Promise = apology.Promise

// Apology records a broken promise.
type Apology = apology.Apology

// Migration describes a schema change (section 3.1).
type Migration = migrate.Migration

// Field scalar types.
const (
	String    = entity.String
	Int       = entity.Int
	Float     = entity.Float
	Bool      = entity.Bool
	Reference = entity.Reference
)

// Open creates a kernel.
func Open(opts Options) (*Kernel, error) { return core.Open(opts) }

// Bootstrap opens a kernel, registers types and installs the built-in
// propagation step.
func Bootstrap(opts Options, types ...*Type) (*Kernel, error) {
	return core.Bootstrap(opts, types...)
}

// NewProcess declares an empty process definition.
func NewProcess(name string) *ProcessDefinition { return process.NewDefinition(name) }

// StandardTypes returns the entity types used by the examples and the
// benchmark workloads (orders, inventory, accounts, books, offers, leads,
// opportunities).
func StandardTypes() []*Type { return workload.Types() }

// Set returns an operation assigning a root field.
func Set(field string, value interface{}) Op { return entity.Set(field, value) }

// Delta returns a commutative numeric increment (the paper's "deltas").
func Delta(field string, amount float64) Op { return entity.Delta(field, amount) }

// InsertChild returns an operation appending a child row.
func InsertChild(collection, childID string, row Fields) Op {
	return entity.InsertChild(collection, childID, row)
}

// SetChildField returns an operation assigning one field of a child row.
func SetChildField(collection, childID, field string, value interface{}) Op {
	return entity.SetChildField(collection, childID, field, value)
}

// DeleteChild returns an operation tombstoning a child row.
func DeleteChild(collection, childID string) Op { return entity.DeleteChild(collection, childID) }

// Delete returns an operation tombstoning the entity (a mark, not a removal).
func Delete() Op { return entity.Delete() }

// Confirm returns an operation confirming previously tentative state.
func Confirm() Op { return entity.Confirm() }
