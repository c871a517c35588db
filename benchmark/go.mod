module featgraph/benchmark

go 1.24

require featgraph v0.0.0

replace featgraph => ../
