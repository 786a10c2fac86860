module github.com/anaheim-sim/anaheim/benchmark

go 1.22

require github.com/anaheim-sim/anaheim v0.0.0

replace github.com/anaheim-sim/anaheim => ../
