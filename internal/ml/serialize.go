package ml

import "fmt"

// This file defines the plain-data state types the model bundle
// (internal/core/bundle.go) persists. Models re-created from state are
// bit-identical to the originals: the flat parameter vectors are copied
// verbatim, and JSON round-trips float64 exactly (Go marshals the
// shortest representation that parses back to the same bits).

// LSTMState is the serializable form of a trained LSTM.
type LSTMState struct {
	Config LSTMConfig `json:"config"`
	Params []float64  `json:"params"`
}

// Export returns the model's persistent state.
func (m *LSTM) Export() LSTMState {
	return LSTMState{Config: m.cfg, Params: append([]float64(nil), m.params...)}
}

// NewLSTMFromState reconstructs a model from persisted state.
func NewLSTMFromState(st LSTMState) (*LSTM, error) {
	m := NewLSTM(st.Config)
	if len(st.Params) != len(m.params) {
		return nil, fmt.Errorf("ml: LSTM state has %d params, config %+v needs %d",
			len(st.Params), st.Config, len(m.params))
	}
	copy(m.params, st.Params)
	return m, nil
}

// SVMState is the serializable form of a trained linear SVM.
type SVMState struct {
	Classes []int       `json:"classes"`
	W       [][]float64 `json:"w"`
}

// Export returns the classifier's persistent state.
func (s *SVM) Export() SVMState {
	w := make([][]float64, len(s.w))
	for i, row := range s.w {
		w[i] = append([]float64(nil), row...)
	}
	return SVMState{Classes: append([]int(nil), s.Classes...), W: w}
}

// NewSVMFromState reconstructs a classifier from persisted state.
func NewSVMFromState(st SVMState) (*SVM, error) {
	if len(st.Classes) != len(st.W) {
		return nil, fmt.Errorf("ml: SVM state has %d classes but %d weight rows",
			len(st.Classes), len(st.W))
	}
	s := &SVM{Classes: append([]int(nil), st.Classes...)}
	for _, row := range st.W {
		s.w = append(s.w, append([]float64(nil), row...))
	}
	return s, nil
}

// TreeNodeState mirrors one CART node (Left = -1 marks a leaf).
type TreeNodeState struct {
	Feature int     `json:"f"`
	Thresh  float64 `json:"t"`
	Left    int     `json:"l"`
	Right   int     `json:"r"`
	Value   float64 `json:"v"`
}

// TreeState is the serializable form of a regression tree.
type TreeState struct {
	Nodes []TreeNodeState `json:"nodes"`
}

// Export returns the tree's persistent state.
func (t *Tree) Export() TreeState {
	nodes := make([]TreeNodeState, len(t.nodes))
	for i, n := range t.nodes {
		nodes[i] = TreeNodeState{Feature: n.feature, Thresh: n.thresh,
			Left: n.left, Right: n.right, Value: n.value}
	}
	return TreeState{Nodes: nodes}
}

// NewTreeFromState reconstructs a tree from persisted state.
func NewTreeFromState(st TreeState) (*Tree, error) {
	t := &Tree{nodes: make([]treeNode, len(st.Nodes))}
	for i, n := range st.Nodes {
		if n.Left >= len(st.Nodes) || n.Right >= len(st.Nodes) {
			return nil, fmt.Errorf("ml: tree node %d has child out of range (%d nodes)", i, len(st.Nodes))
		}
		t.nodes[i] = treeNode{feature: n.Feature, thresh: n.Thresh,
			left: n.Left, right: n.Right, value: n.Value}
	}
	return t, nil
}

// GBDTState is the serializable form of a boosted ensemble.
type GBDTState struct {
	Base  float64     `json:"base"`
	LR    float64     `json:"lr"`
	Trees []TreeState `json:"trees"`
}

// Export returns the ensemble's persistent state.
func (g *GBDT) Export() GBDTState {
	st := GBDTState{Base: g.base, LR: g.lr}
	for _, tr := range g.trees {
		st.Trees = append(st.Trees, tr.Export())
	}
	return st
}

// NewGBDTFromState reconstructs an ensemble from persisted state.
func NewGBDTFromState(st GBDTState) (*GBDT, error) {
	g := &GBDT{boosted{base: st.Base, lr: st.LR}}
	for i, ts := range st.Trees {
		tr, err := NewTreeFromState(ts)
		if err != nil {
			return nil, fmt.Errorf("ml: GBDT tree %d: %w", i, err)
		}
		g.trees = append(g.trees, tr)
	}
	return g, nil
}
