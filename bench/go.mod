module acclaim/bench

go 1.22

require acclaim v0.0.0

replace acclaim => ../
