module clara/bench

go 1.22

require clara v0.0.0

replace clara => ../
