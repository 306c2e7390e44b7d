module starfish/bench

go 1.22

require starfish v0.0.0

replace starfish => ../
