// One thread counts a shared variable to 30,000 and then fails an
// assertion. Every access to `counter` is a visible step, so the model
// checker's default depth limit (20,000 steps per path) cuts the
// exploration short before the failure is reachable: `atomig check`
// must report the truncation as an error, never as a pass.
long counter;

int main() {
    while (counter < 30000) {
        counter = counter + 1;
    }
    assert(counter == 0);
    return 0;
}
