package engine

import (
	"fmt"

	"jisc/internal/tuple"
)

// Static is the no-migration strategy: a plain symmetric-hash-join (or
// nested-loops) pipeline. It is the "pure symmetric hash join plan"
// baseline of Figure 9a. Migrating a Static engine fails before any
// state is touched.
type Static struct{}

// RejectsTransitions implements TransitionRejector.
func (Static) RejectsTransitions() bool { return true }

// Name implements Strategy.
func (Static) Name() string { return "static" }

// OnTransition implements Strategy; unreachable because Migrate
// rejects Static transitions up front, kept as a safety net.
func (Static) OnTransition(*Engine) error {
	return fmt.Errorf("engine: static strategy does not support plan transitions")
}

// BeforeProbe implements Strategy (no-op).
func (Static) BeforeProbe(*Engine, *Node, *Node, *tuple.Tuple) {}

// EvictContinue implements Strategy (standard stop-at-no-match rule).
func (Static) EvictContinue(*Engine, *Node, tuple.Value) bool { return false }
