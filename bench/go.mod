module bba/bench

go 1.22

require bba v0.0.0

replace bba => ../
