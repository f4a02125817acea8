package trace

import (
	"sort"

	"github.com/vanetsec/georoute/addrtab"
)

// NodeCounters tallies events and drop reasons for one node. Fixed-size
// arrays keep the sink allocation-free after a node's first record.
type NodeCounters struct {
	Events [numEvents]uint64
	Drops  [numReasons]uint64
}

// Counters is a per-node counter-registry sink: every record bumps the
// event tally of its node, and drops additionally bump the reason tally.
type Counters struct {
	nodes addrtab.Table[uint64, nodeCounters]
}

// nodeCounters is one node's tallies, stored with the node's id because
// the table's enumeration visits entries, not keys.
type nodeCounters struct {
	id uint64
	NodeCounters
}

// NewCounters builds an empty registry.
func NewCounters() *Counters {
	return &Counters{}
}

// Record tallies one record.
func (c *Counters) Record(r Record) {
	nc := c.nodes.Get(r.Node)
	if nc == nil {
		nc = &nodeCounters{id: r.Node}
		c.nodes.Put(r.Node, nc)
	}
	nc.Events[r.Event]++
	if r.Reason != ReasonNone {
		nc.Drops[r.Reason]++
	}
}

// Nodes returns the node ids present, ascending.
func (c *Counters) Nodes() []uint64 {
	ids := make([]uint64, 0, c.nodes.Len())
	c.nodes.Sweep(func(nc *nodeCounters) bool {
		ids = append(ids, nc.id)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Totals folds every node into one NodeCounters.
func (c *Counters) Totals() NodeCounters {
	var t NodeCounters
	c.nodes.Sweep(func(nc *nodeCounters) bool {
		for i := range nc.Events {
			t.Events[i] += nc.Events[i]
		}
		for i := range nc.Drops {
			t.Drops[i] += nc.Drops[i]
		}
		return true
	})
	return t
}

// CounterRollup is the JSON artifact form of a counter registry: totals
// plus a per-node breakdown, with enum names as keys and zero entries
// omitted.
type CounterRollup struct {
	Totals  CounterSet       `json:"totals"`
	PerNode []NodeCounterSet `json:"per_node,omitempty"`
}

// CounterSet is a name-keyed event/drop tally.
type CounterSet struct {
	Events map[string]uint64 `json:"events,omitempty"`
	Drops  map[string]uint64 `json:"drops,omitempty"`
}

// NodeCounterSet is a CounterSet attributed to one node.
type NodeCounterSet struct {
	Node uint64 `json:"node"`
	CounterSet
}

func (nc *NodeCounters) set() CounterSet {
	var s CounterSet
	for i, v := range nc.Events {
		if v != 0 {
			if s.Events == nil {
				s.Events = make(map[string]uint64)
			}
			s.Events[Event(i).String()] = v
		}
	}
	for i, v := range nc.Drops {
		if v != 0 {
			if s.Drops == nil {
				s.Drops = make(map[string]uint64)
			}
			s.Drops[Reason(i).String()] = v
		}
	}
	return s
}

// Rollup converts the registry into its artifact form (nodes ascending).
func (c *Counters) Rollup() CounterRollup {
	t := c.Totals()
	roll := CounterRollup{Totals: t.set()}
	for _, id := range c.Nodes() {
		roll.PerNode = append(roll.PerNode, NodeCounterSet{Node: id, CounterSet: c.nodes.Get(id).set()})
	}
	return roll
}
