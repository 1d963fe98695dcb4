package experiments

// Experiment names one regenerable table/figure.
type Experiment struct {
	ID  string
	Run func(*Context) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"figure1", Figure1},
		{"table1", Table1},
		{"table2", Table2},
		{"figure8", Figure8},
		{"figure8-ablation", Figure8Ablation},
		{"reverse-port-ablation", ReversePortAblation},
		{"figure9", Figure9},
		{"figure10a", Figure10a},
		{"figure10b", Figure10b},
		{"figure10c", Figure10c},
		{"figure11a", Figure11a},
		{"figure11b", Figure11b},
		{"figure11cd", Figure11cd},
		{"figure11ef", Figure11ef},
		{"figure12", Figure12},
		{"figure13", Figure13},
		{"figure14a", Figure14a},
		{"figure14bc", Figure14bc},
		{"figure15", Figure15},
		{"figure16", Figure16},
	}
}

// Get returns the experiment with the given ID, or nil.
func Get(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			out := e
			return &out
		}
	}
	return nil
}
