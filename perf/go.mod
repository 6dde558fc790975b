module lighttrader/perf

go 1.22

require lighttrader v0.0.0

replace lighttrader => ../
